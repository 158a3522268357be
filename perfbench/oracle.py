"""Expected answers, computed without the program under test.

The benchmark keeps its own model of every relation as plain Python
sets and applies the same deltas to it.  Each query shape's expected
answer is derived here from that model with ordinary string code:
``x == y + z``, ``x == y``, ``startswith``, ``in``, ``x == y * k``, an
interleaving table, and a Wagner–Fischer table bounded at one edit.
Nothing in this module imports ``repro``.
"""

from __future__ import annotations


def is_manifold(x: str, y: str) -> bool:
    """``x == y * k`` for some ``k >= 1``."""
    return bool(y) and len(x) % len(y) == 0 and x == y * (len(x) // len(y))


def is_shuffle(x: str, y: str, z: str) -> bool:
    """``x`` interleaves ``y`` and ``z`` (dynamic programming)."""
    if len(x) != len(y) + len(z):
        return False
    row = [True] * (len(z) + 1)
    for j in range(1, len(z) + 1):
        row[j] = row[j - 1] and z[j - 1] == x[j - 1]
    for i in range(1, len(y) + 1):
        row[0] = row[0] and y[i - 1] == x[i - 1]
        for j in range(1, len(z) + 1):
            char = x[i + j - 1]
            row[j] = (row[j] and y[i - 1] == char) or (
                row[j - 1] and z[j - 1] == char
            )
    return row[len(z)]


def within_one_edit(x: str, y: str) -> bool:
    """Edit distance of ``x`` and ``y`` is at most 1 (Wagner–Fischer)."""
    if abs(len(x) - len(y)) > 1:
        return False
    previous = list(range(len(y) + 1))
    for i in range(1, len(x) + 1):
        current = [i] + [0] * len(y)
        for j in range(1, len(y) + 1):
            current[j] = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (x[i - 1] != y[j - 1]),
            )
        if min(current) > 1:
            return False
        previous = current
    return previous[len(y)] <= 1


#: paper_queries: shape -> (R1 pairs, R2 rows) -> expected answer set.
#: Heads match the calculus queries in ``workloads.paper_query_shapes``.
def paper_expected(shape: str, pairs, rows) -> frozenset:
    xs = [x for (x,) in rows]
    if shape == "generate":
        return frozenset((y + z,) for y, z in pairs)
    if shape == "concat":
        return frozenset(
            (x,) for x in xs for y, z in pairs if x == y + z
        )
    if shape == "equal":
        return frozenset((x, z) for x in xs for y, z in pairs if x == y)
    if shape == "manifold":
        return frozenset(
            (x, y) for x in xs for y, _ in pairs if is_manifold(x, y)
        )
    if shape == "shuffle":
        return frozenset(
            (x, y, z) for x in xs for y, z in pairs if is_shuffle(x, y, z)
        )
    if shape == "occurs":
        return frozenset((x, y) for x in xs for y, _ in pairs if y in x)
    if shape == "edit1":
        return frozenset(
            (x, y) for x in xs for y, _ in pairs if within_one_edit(x, y)
        )
    if shape == "prefix":
        return frozenset(
            (x, y) for x in xs for y, _ in pairs if x.startswith(y)
        )
    raise ValueError(f"unknown paper shape {shape!r}")


def motif_expected(motif: str, rows) -> frozenset:
    """``motif in y`` over the unary relation."""
    return frozenset(row for row in rows if motif in row[0])


#: daemon_mix: the five shapes over (R1 pairs, R2 rows).
def daemon_expected(shape: str, motif: str, pairs, rows) -> frozenset:
    if shape == "scan":
        return frozenset(pairs)
    if shape == "join":
        present = {x for (x,) in rows}
        return frozenset((x,) for x, _ in pairs if x in present)
    if shape == "motif":
        return motif_expected(motif, rows)
    if shape == "equality":
        return frozenset((y,) for y, _ in pairs)
    if shape == "selfjoin":
        by_first: dict[str, list[str]] = {}
        for y, z in pairs:
            by_first.setdefault(y, []).append(z)
        return frozenset(
            (x, z) for x, y in pairs for z in by_first.get(y, ())
        )
    raise ValueError(f"unknown daemon shape {shape!r}")

