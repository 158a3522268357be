"""Seeded inputs for the three workloads.

Everything here is plain Python over ``random.Random(seed)``: the same
seed gives the same relations, the same update stream and the same
query schedule, and nothing in this module imports the program under
test.  Sizes, motifs and planted fractions are recorded in README.md.
"""

from __future__ import annotations

import random

ALPHABET = "acgt"

#: The seed a run uses unless told otherwise; tuning used seeds 1-10.
DEFAULT_SEED = 1
#: Kept out of tuning: a claimed gain must also hold on this seed.
HELD_OUT_SEED = 97

#: paper_queries: Example 3's shape, R1 pairs of short strings and R2
#: fragments built from them.
PQ_PAIRS = 40
PQ_PAIR_MAX = 4
PQ_FRAGMENTS = 200
PQ_FRAGMENT_MAX = 8

#: motif_updates: a large unary relation with planted 6-character motifs.
#: The motifs are fixed restriction sites, not drawn from the seed: a
#: motif's n-grams set its probe cost, so seeded motifs would make the
#: cost of a run depend on the seed.  The first two are the standing
#: (materialized) selections, the other eight the ad-hoc ones.
MU_MOTIFS = (
    "gaattc", "ggatcc", "aagctt", "ctgcag", "gtcgac",
    "ccatgg", "catatg", "tctaga", "gcgcgc", "agatct",
)
MU_ROWS = 30_000
MU_MOTIF_LENGTH = 6
MU_BASE_MIN, MU_BASE_MAX = 4, 18
MU_PLANTED = 0.02  # share of rows per motif
#: Anchor length: one longer than any planted row can be.
MU_MAX = MU_BASE_MAX + MU_MOTIF_LENGTH + 1
MU_ANCHORS = 4
MU_DELTA_ROWS = 6

#: daemon_mix: a small served database.
DM_PAIRS = 200
DM_ROWS = 2000
DM_MOTIF = "gcgcgc"
DM_OWNED_PAIRS = 20  # R1 pairs each connection toggles
DM_OWNED_ROWS = 100  # R2 rows each connection toggles


def _word(rng: random.Random, low: int, high: int) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(low, high)))


def _interleave(rng: random.Random, y: str, z: str) -> str:
    out, i, j = [], 0, 0
    while i < len(y) or j < len(z):
        if j >= len(z) or (i < len(y) and rng.random() < 0.5):
            out.append(y[i])
            i += 1
        else:
            out.append(z[j])
            j += 1
    return "".join(out)


def _one_edit(rng: random.Random, word: str) -> str:
    chars = list(word)
    kind = rng.randrange(3)
    if kind == 0 or len(chars) < 2:
        chars.insert(rng.randint(0, len(chars)), rng.choice(ALPHABET))
    elif kind == 1:
        del chars[rng.randrange(len(chars))]
    else:
        chars[rng.randrange(len(chars))] = rng.choice(ALPHABET)
    return "".join(chars)


# -- paper_queries -------------------------------------------------------


def pq_pair(rng: random.Random) -> tuple[str, str]:
    return (_word(rng, 1, PQ_PAIR_MAX), _word(rng, 1, PQ_PAIR_MAX))


def pq_fragment(rng: random.Random, pairs: list[tuple[str, str]]) -> str:
    """One R2 fragment: planted from an R1 pair, or random.

    Planted kinds (share): concatenation y·z (15%), manifold y^k (10%),
    shuffle of y and z (10%), occurrence u·y·v (10%), one edit from y
    (10%), prefix y·u (10%); the other 35% are uniform.
    """
    y, z = rng.choice(pairs)
    roll = rng.random()
    if roll < 0.15:
        word = y + z
    elif roll < 0.25:
        word = y * rng.randint(2, max(2, PQ_FRAGMENT_MAX // len(y)))
    elif roll < 0.35:
        word = _interleave(rng, y, z)
    elif roll < 0.45:
        word = _word(rng, 0, 2) + y + _word(rng, 0, 2)
    elif roll < 0.55:
        word = _one_edit(rng, y)
    elif roll < 0.65:
        word = y + _word(rng, 1, 3)
    else:
        word = _word(rng, 1, PQ_FRAGMENT_MAX)
    return word[:PQ_FRAGMENT_MAX] or rng.choice(ALPHABET)


def paper_queries_inputs(seed: int):
    """``(R1 pairs, R2 rows, anchors)``; anchors fix both maximal lengths.

    The anchors are never deleted, so the certified bound — a function
    of the longest stored strings — is the same in every round.
    """
    rng = random.Random(seed)
    anchor_pair = ("a" * PQ_PAIR_MAX, "c" * PQ_PAIR_MAX)
    pairs = {anchor_pair}
    while len(pairs) < PQ_PAIRS:
        pairs.add(pq_pair(rng))
    ordered = sorted(pairs)
    anchor_row = ("g" * PQ_FRAGMENT_MAX,)
    rows = {anchor_row}
    while len(rows) < PQ_FRAGMENTS:
        rows.add((pq_fragment(rng, ordered),))
    return ordered, sorted(rows), {anchor_pair, anchor_row}


def paper_queries_update(rng, pairs: set, rows: set, anchors: set):
    """One constant-size delta: swap one R1 pair and one R2 fragment."""
    old_pair = rng.choice(sorted(pairs - anchors))
    new_pair = pq_pair(rng)
    while new_pair in pairs:
        new_pair = pq_pair(rng)
    old_row = rng.choice(sorted(rows - anchors))
    new_row = (pq_fragment(rng, sorted(pairs)),)
    while new_row in rows:
        new_row = (pq_fragment(rng, sorted(pairs)),)
    return (
        {"R1": [new_pair], "R2": [new_row]},
        {"R1": [old_pair], "R2": [old_row]},
    )


# -- motif_updates -------------------------------------------------------


def _planted_row(rng: random.Random, motif: str | None, high: int) -> str:
    base = _word(rng, MU_BASE_MIN, high)
    if motif is None:
        return base
    cut = rng.randint(0, len(base))
    return base[:cut] + motif + base[cut:]


def motif_updates_inputs(seed: int):
    """``(motifs, R2 rows, anchors)`` for the n-gram workload.

    Each motif is planted in ``MU_PLANTED`` of the rows; ``MU_ANCHORS``
    rows of the maximal length ``MU_MAX`` are never deleted, so the
    certified bound of every motif selection stays put.
    """
    rng = random.Random(seed)
    motifs = list(MU_MOTIFS)
    anchors = set()
    while len(anchors) < MU_ANCHORS:
        anchors.add((_word(rng, MU_MAX, MU_MAX),))
    rows = set(anchors)
    while len(rows) < MU_ROWS:
        roll = rng.random()
        index = int(roll / MU_PLANTED)
        motif = motifs[index] if index < len(motifs) else None
        rows.add((_planted_row(rng, motif, MU_BASE_MAX),))
    return motifs, sorted(rows), anchors


def motif_updates_update(rng, deletable: list, rows: set, motifs: list[str]):
    """6 deletes of non-anchor rows and 6 fresh inserts, half with motifs.

    ``deletable`` lists the present non-anchor rows in a seed-determined
    order; it is updated in place (swap-remove, then append), which keeps
    a round O(delta) instead of sorting 30 000 rows.
    """
    picked = sorted(rng.sample(range(len(deletable)), MU_DELTA_ROWS), reverse=True)
    deletes = []
    for index in picked:
        deletes.append(deletable[index])
        deletable[index] = deletable[-1]
        deletable.pop()
    inserts: list[tuple[str]] = []
    while len(inserts) < MU_DELTA_ROWS:
        motif = rng.choice(motifs) if len(inserts) % 2 == 0 else None
        row = (_planted_row(rng, motif, MU_BASE_MAX),)
        if row not in rows and row not in inserts:
            inserts.append(row)
    deletable.extend(inserts)
    return {"R2": inserts}, {"R2": deletes}


# -- daemon_mix ----------------------------------------------------------


def daemon_mix_inputs(seed: int, connections: int):
    """The served database plus each connection's disjoint toggle rows.

    Returns ``(stable_pairs, stable_rows, owned)`` where ``owned[c]`` is
    ``(pairs, rows)``: rows only connection ``c`` inserts and deletes.
    The first half of each owned list starts present.
    """
    rng = random.Random(seed)
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < DM_PAIRS:
        pairs.add((_word(rng, 1, 4), _word(rng, 1, 4)))
    firsts = sorted({y for y, _ in pairs})
    rows: set[tuple[str]] = set()
    while len(rows) < DM_ROWS:
        roll = rng.random()
        if roll < 0.1:
            word = rng.choice(firsts)
        elif roll < 0.2:
            word = _word(rng, 0, 3) + DM_MOTIF + _word(rng, 0, 3)
        else:
            word = _word(rng, 2, 10)
        rows.add((word,))
    pair_list, row_list = sorted(pairs), sorted(rows)
    rng.shuffle(pair_list)
    rng.shuffle(row_list)
    owned = []
    for c in range(connections):
        owned.append(
            (
                pair_list[c * DM_OWNED_PAIRS:(c + 1) * DM_OWNED_PAIRS],
                row_list[c * DM_OWNED_ROWS:(c + 1) * DM_OWNED_ROWS],
            )
        )
    stable_pairs = pair_list[connections * DM_OWNED_PAIRS:]
    stable_rows = row_list[connections * DM_OWNED_ROWS:]
    return sorted(stable_pairs), sorted(stable_rows), owned
