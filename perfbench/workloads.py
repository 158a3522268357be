"""The three closed-loop workloads.

Each workload builds its inputs from the seed, sets the program up
(database, indexes, daemon, one warm-up pass over every query shape),
then runs whole *rounds* of operations.  A round returns one record
per operation: its class, its latency as seen by the caller, and
whether it passed its check.  Checks run outside the timed regions and
compare against ``oracle``, which never calls the program.

Every evaluation passes ``workers=1`` (the daemon runs ``--workers 1``)
so no answer path depends on the host's CPU count.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import inputs
import oracle

#: One worker process per evaluation; see the module docstring.
WORKERS = 1


class Op:
    """One timed operation: class, caller-side seconds, check verdict.

    ``shape`` names the query (or motif) an op evaluates and
    ``beside`` the shapes other connections evaluate at the same time;
    ops alike in both are alike in cost.
    """

    __slots__ = ("kind", "seconds", "ok", "server", "shape", "beside")

    def __init__(self, kind, seconds, ok, server=None, shape=None, beside=None):
        self.kind = kind
        self.seconds = seconds
        self.ok = ok
        #: The daemon's own ``elapsed`` for the request, when reported.
        self.server = server
        self.shape = shape
        self.beside = beside


def query_p50(ops: list[Op]) -> float:
    """The mean over query shapes of each shape's median latency, in seconds.

    Every workload's shapes differ in cost (by more than 20x on
    ``paper_queries``), so a median over all query ops would sit on the
    border between two shapes' cost clusters and flip between runs.
    Each shape's own median sits inside one cluster; their mean weighs
    the shapes equally, as every round does.  On ``daemon_mix`` a
    query's latency also depends on the shape evaluated beside it, so
    there a shape is a (shape, beside) pair.
    """
    groups = {}
    for op in ops:
        if op.kind == "query" and op.ok:
            groups.setdefault((op.shape, op.beside), []).append(op.seconds)
    return statistics.fmean(statistics.median(group) for group in groups.values())


def _motif_formula(variable: str, motif: str):
    """``motif`` occurs in ``variable``: skip a prefix, then match it."""
    from repro.core.syntax import IsChar, SStar, WTrue, atom, concat, left

    return concat(
        SStar(atom(left(variable), WTrue())),
        *[atom(left(variable), IsChar(variable, char)) for char in motif],
    )


class _InProcess:
    """Shared parts of the two workloads that evaluate in this process."""

    #: Wraps every check; the traced run replaces it so that checking
    #: counts toward no layer.
    untimed = contextlib.nullcontext

    def __init__(self, root: Path, seed: int, traced: bool) -> None:
        self.root = root
        self.seed = seed
        self.traced = traced
        self.session = None

    def engine_session(self):
        return self.session

    def counters(self) -> dict:
        """The session tracer's counters (traced run only)."""
        return dict(self.session.tracer.counters)

    def trace_reports(self) -> dict:
        return {"session": self.session.trace_report().to_dict()}

    def pool_started(self) -> bool:
        return bool(multiprocessing.active_children())

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass

    def _new_session(self):
        from repro.engine import QueryEngine
        from repro.observability import Tracer

        return QueryEngine(tracer=Tracer() if self.traced else None)


class PaperQueries(_InProcess):
    """Example 3's database and the paper's query set, in process."""

    name = "paper_queries"
    #: Traced runs make a fixed number of rounds per requested second,
    #: so their counts repeat exactly; sized so that a traced run takes
    #: about the requested time on a 2-vCPU host.
    trace_rounds_per_second = 0.3

    SHAPES = (
        "concat", "equal", "manifold", "shuffle",
        "occurs", "edit1", "prefix", "generate",
    )

    def setup(self) -> None:
        from repro.core import shorthands as sh
        from repro.core.alphabet import Alphabet
        from repro.core.database import Database
        from repro.core.query import Query
        from repro.core.syntax import And, exists, lift, rel

        pairs, rows, anchors = inputs.paper_queries_inputs(self.seed)
        self.pairs, self.rows, self.anchors = set(pairs), set(rows), anchors
        alphabet = Alphabet(inputs.ALPHABET)
        self.db = Database(alphabet, {"R1": pairs, "R2": rows})
        self.session = self._new_session()
        base = And(rel("R1", "y", "z"), rel("R2", "x"))

        def joined(head, string_formula, hidden):
            body = And(base, lift(string_formula))
            return Query(head, exists(hidden, body) if hidden else body, alphabet)

        self.queries = {
            "concat": joined(("x",), sh.concatenation("x", "y", "z"), ["y", "z"]),
            "equal": joined(("x", "z"), sh.equals("x", "y"), ["y"]),
            "manifold": joined(("x", "y"), sh.manifold("x", "y"), ["z"]),
            "shuffle": joined(("x", "y", "z"), sh.shuffle("x", "y", "z"), []),
            "occurs": joined(("x", "y"), sh.occurs_in("y", "x"), ["z"]),
            "edit1": joined(
                ("x", "y"), sh.edit_distance_at_most("x", "y", 1), ["z"]
            ),
            "prefix": joined(("x", "y"), sh.prefix_of("y", "x"), ["z"]),
            "generate": Query(
                ("x",),
                exists(
                    ["y", "z"],
                    And(
                        rel("R1", "y", "z"),
                        lift(sh.concatenation("x", "y", "z")),
                    ),
                ),
                alphabet,
            ),
        }
        self.updates = random.Random(self.seed * 7919 + 1)
        # Warm-up: the cold compile of every shape, checked like any pass.
        if not all(op.ok for op in self._query_pass()):
            raise RuntimeError("warm-up pass disagrees with the model")

    def _query_pass(self) -> list[Op]:
        """Evaluate every shape once; each evaluation is one query op."""
        ops = []
        for shape in self.SHAPES:
            started = perf_counter()
            answer = self.session.evaluate(
                self.queries[shape], self.db, workers=WORKERS
            )
            elapsed = perf_counter() - started
            with self.untimed():
                expected = oracle.paper_expected(shape, self.pairs, self.rows)
                ops.append(Op("query", elapsed, answer == expected, shape=shape))
        return ops

    def round(self) -> tuple[list[Op], float]:
        from repro.delta import Delta

        inserted, deleted = inputs.paper_queries_update(
            self.updates, self.pairs, self.rows, self.anchors
        )
        delta = Delta.of(inserts=inserted, deletes=deleted)
        started = perf_counter()
        self.db = self.session.apply_delta(self.db, delta)
        elapsed = perf_counter() - started
        with self.untimed():
            self.pairs = (self.pairs - set(deleted["R1"])) | set(inserted["R1"])
            self.rows = (self.rows - set(deleted["R2"])) | set(inserted["R2"])
            ok = set(self.db.relation("R1")) == self.pairs and set(
                self.db.relation("R2")
            ) == self.rows
        ops = [Op("update", elapsed, ok)] + self._query_pass()
        return ops, sum(op.seconds for op in ops)


class MotifUpdates(_InProcess):
    """Writes beside indexed reads on one n-gram storage, in process."""

    name = "motif_updates"
    trace_rounds_per_second = 4.0
    #: Ad-hoc selections per round, cycling through the non-standing motifs.
    ADHOC_PER_ROUND = 4

    def setup(self) -> None:
        from repro.core.alphabet import Alphabet
        from repro.core.database import Database
        from repro.core.query import Query
        from repro.core.syntax import And, lift, rel
        from repro.storage import storage_factory

        motifs, rows, anchors = inputs.motif_updates_inputs(self.seed)
        self.motifs, self.rows = motifs, set(rows)
        alphabet = Alphabet(inputs.ALPHABET)
        self.db = Database(
            alphabet, {"R2": rows}, storage=storage_factory("ngram")
        )
        self.session = self._new_session()
        self.queries = {
            motif: Query(
                ("y",), And(rel("R2", "y"), lift(_motif_formula("y", motif))),
                alphabet,
            )
            for motif in motifs
        }
        self.standing = motifs[:2]
        self.adhoc = motifs[2:]
        self.updates = random.Random(self.seed * 7919 + 2)
        self.deletable = sorted(self.rows - anchors)
        self.adhoc_next = 0
        # Expected answers per motif, kept up to date with each delta
        # (a full rescan of 30 000 rows per check would take a quarter
        # of every run).
        self.expected = {
            motif: set(oracle.motif_expected(motif, self.rows))
            for motif in motifs
        }
        for motif in motifs:
            answer = self.session.evaluate(
                self.queries[motif], self.db, workers=WORKERS,
                materialize=motif in self.standing,
            )
            if answer != self.expected[motif]:
                raise RuntimeError(f"warm-up answer for {motif} is wrong")

    def round(self) -> tuple[list[Op], float]:
        from repro.delta import Delta

        inserted, deleted = inputs.motif_updates_update(
            self.updates, self.deletable, self.rows, self.motifs
        )
        delta = Delta.of(inserts=inserted, deletes=deleted)
        started = perf_counter()
        self.db = self.session.apply_delta(self.db, delta)
        standing = [
            self.session.evaluate(
                self.queries[motif], self.db, workers=WORKERS, materialize=True
            )
            for motif in self.standing
        ]
        elapsed = perf_counter() - started
        with self.untimed():
            self.rows = (self.rows - set(deleted["R2"])) | set(inserted["R2"])
            for motif, expected in self.expected.items():
                expected -= set(deleted["R2"])
                expected |= oracle.motif_expected(motif, inserted["R2"])
            ok = all(
                answer == self.expected[motif]
                for motif, answer in zip(self.standing, standing)
            )
        ops = [Op("update", elapsed, ok)]
        for _ in range(self.ADHOC_PER_ROUND):
            motif = self.adhoc[self.adhoc_next % len(self.adhoc)]
            self.adhoc_next += 1
            started = perf_counter()
            answer = self.session.evaluate(
                self.queries[motif], self.db, workers=WORKERS
            )
            elapsed = perf_counter() - started
            with self.untimed():
                ok = answer == self.expected[motif]
            ops.append(Op("query", elapsed, ok, shape=motif))
        return ops, sum(op.seconds for op in ops)


# -- daemon_mix ----------------------------------------------------------

#: Textual queries, one per daemon shape: (formula, head).
_EQUALITY = "([x,y]l(x = y))* . [x,y]l(x = y = eps)"


def _daemon_shapes(motif: str) -> dict[str, tuple[str, list[str]]]:
    motif_steps = " . ".join(f"[x]l(x = '{char}')" for char in motif)
    return {
        "scan": ("R1(x, y)", ["x", "y"]),
        "join": ("exists y: R1(x, y) & R2(x)", ["x"]),
        "motif": (f"R2(x) & ([x]l)* . {motif_steps}", ["x"]),
        "equality": (f"exists y, z: R1(y, z) & {_EQUALITY}", ["x"]),
        "selfjoin": ("exists y: R1(x, y) & R1(y, z)", ["x", "z"]),
    }


class _Connection:
    """One client connection's closed loop and its owned toggle rows."""

    def __init__(self, index, client, owned, rng, shapes, bounds):
        self.index = index
        self.client = client
        self.pairs, self.rows = owned
        half_pairs, half_rows = len(self.pairs) // 2, len(self.rows) // 2
        self.present_pairs = set(self.pairs[:half_pairs])
        self.present_rows = set(self.rows[:half_rows])
        self.rng = rng
        self.shapes = shapes
        self.bounds = bounds
        self.ops: list[Op] = []
        #: (op, reply rows) awaiting their check, made after the round so
        #: that checking takes no processor time from the timed loop.
        self.unchecked: list[tuple[Op, list]] = []

    def _query(self, shape: str, beside: str) -> Op:
        formula, head = self.shapes[shape]
        started = perf_counter()
        try:
            result = self.client.call("query", {"formula": formula, "head": head})
        except Exception:  # a refused or failed request is a failed op
            return Op("query", perf_counter() - started, False, None, shape, beside)
        op = Op(
            "query", perf_counter() - started, True, result.get("elapsed"),
            shape, beside,
        )
        self.unchecked.append((op, result["rows"]))
        return op

    def check_replies(self) -> None:
        """Every reply lies between the stable and the possible answer."""
        for op, reply in self.unchecked:
            rows = [tuple(row) for row in reply]
            answer = set(rows)
            lower, upper = self.bounds[op.shape]
            op.ok = len(answer) == len(rows) and lower <= answer <= upper
        self.unchecked = []

    def _update(self) -> Op:
        old_pair = self.rng.choice(sorted(self.present_pairs))
        new_pair = self.rng.choice(sorted(set(self.pairs) - self.present_pairs))
        old_row = self.rng.choice(sorted(self.present_rows))
        new_row = self.rng.choice(sorted(set(self.rows) - self.present_rows))
        started = perf_counter()
        try:
            result = self.client.update(
                insert={"R1": [new_pair], "R2": [new_row]},
                delete={"R1": [old_pair], "R2": [old_row]},
            )
        except Exception:
            return Op("update", perf_counter() - started, False)
        elapsed = perf_counter() - started
        self.present_pairs = (self.present_pairs - {old_pair}) | {new_pair}
        self.present_rows = (self.present_rows - {old_row}) | {new_row}
        return Op("update", elapsed, result.get("applied") == 4)

    def run_round(self, first_shape: int, barrier, blocks: int, steps: int) -> None:
        """``blocks`` times: ``steps`` query steps, then one update step
        per connection, each sent while the other connections wait.

        At query step ``q`` connection ``i`` evaluates shape
        ``first_shape + i + q`` (mod the number of shapes).
        """
        names = list(self.shapes)
        queries = 0
        for _ in range(blocks):
            for _ in range(steps):
                barrier.wait()
                shapes = [
                    names[(first_shape + index + queries) % len(names)]
                    for index in range(barrier.parties)
                ]
                shape = shapes.pop(self.index)
                queries += 1
                self.ops.append(self._query(shape, ",".join(shapes)))
            for updater in range(barrier.parties):
                barrier.wait()
                if updater == self.index:
                    self.ops.append(self._update())


class DaemonMix:
    """A ``repro serve`` daemon under two client connections."""

    name = "daemon_mix"
    untimed = contextlib.nullcontext
    CONNECTIONS = 2
    POOL_SIZE = 2
    #: The connections move in lockstep: at each query step every
    #: connection sends one query, a different shape from the others, and
    #: the next step starts when all replies are in.  Free-running, a
    #: query's latency depended on which request the other connection
    #: had in flight (a scan took 2-20 ms), an update waited for an
    #: arbitrary query to leave the pool, and whether a shape found its
    #: cache entries fresh depended on where the other connection's
    #: updates fell, so per-shape medians and cache counts moved between
    #: runs.  A round is BLOCKS blocks of QUERY_STEPS query steps and one
    #: update step per connection: one op in eight is an update.
    BLOCKS = 5
    QUERY_STEPS = 7
    trace_rounds_per_second = 1.2

    def __init__(self, root: Path, seed: int, traced: bool) -> None:
        self.root = root
        self.seed = seed
        self.traced = traced
        self.process = None
        self.handle = None
        self.clients = []
        self.workdir = None
        self.reports: list = []
        self.stage_seconds: dict[str, float] = {}

    # -- daemon lifecycle ----------------------------------------------

    def _start_subprocess(self, db_path: Path) -> tuple[str, int]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--alphabet", inputs.ALPHABET, "--db", str(db_path),
                "--port", "0", "--workers", str(WORKERS),
                "--pool-size", str(self.POOL_SIZE),
            ],
            cwd=self.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        lines: queue.Queue = queue.Queue()

        def drain(stream) -> None:
            for line in stream:
                lines.put(line.decode("utf-8", "replace"))
            lines.put(None)

        threading.Thread(
            target=drain, args=(self.process.stderr,), daemon=True
        ).start()
        seen = []
        while True:
            try:
                line = lines.get(timeout=60)
            except queue.Empty:
                raise RuntimeError("daemon did not announce its port") from None
            if line is None:
                raise RuntimeError("daemon exited: " + "".join(seen))
            seen.append(line)
            if line.startswith("-- serving") and " on " in line:
                host, _, port = line.rsplit(" on ", 1)[1].strip().rpartition(":")
                return host, int(port)

    def _start_in_thread(self, db) -> tuple[str, int]:
        from repro.service import serve_in_thread

        lock = threading.Lock()

        def on_report(request_id, op, report) -> None:
            with lock:
                for stage, data in report.stages.items():
                    self.stage_seconds[stage] = (
                        self.stage_seconds.get(stage, 0.0) + data["seconds"]
                    )
                if len(self.reports) < 50:
                    self.reports.append(report.to_dict())

        self.handle = serve_in_thread(
            db,
            pool_size=self.POOL_SIZE,
            default_workers=WORKERS,
            on_report=on_report,
        )
        return self.handle.address

    # -- workload --------------------------------------------------------

    def setup(self) -> None:
        import tempfile

        from repro.service import ServiceClient

        stable_pairs, stable_rows, owned = inputs.daemon_mix_inputs(
            self.seed, self.CONNECTIONS
        )
        self.stable = (set(stable_pairs), set(stable_rows))
        self.shapes = _daemon_shapes(inputs.DM_MOTIF)
        all_pairs = set(stable_pairs).union(*(set(p) for p, _ in owned))
        all_rows = set(stable_rows).union(*(set(r) for _, r in owned))
        bounds = {
            shape: (
                oracle.daemon_expected(shape, inputs.DM_MOTIF, *self.stable),
                oracle.daemon_expected(shape, inputs.DM_MOTIF, all_pairs, all_rows),
            )
            for shape in self.shapes
        }
        rng = random.Random(self.seed * 7919 + 3)
        self.connections = [
            _Connection(
                index, None, owned[index], random.Random(rng.random()),
                self.shapes, bounds,
            )
            for index in range(self.CONNECTIONS)
        ]
        pairs, rows = self._model()
        if self.traced:
            from repro.core.alphabet import Alphabet
            from repro.core.database import Database

            address = self._start_in_thread(
                Database(
                    Alphabet(inputs.ALPHABET),
                    {"R1": sorted(pairs), "R2": sorted(rows)},
                )
            )
        else:
            runs = self.root / ".perfbench"
            runs.mkdir(exist_ok=True)
            self.workdir = Path(tempfile.mkdtemp(prefix="daemon-", dir=runs))
            db_path = self.workdir / "db.json"
            db_path.write_text(
                json.dumps(
                    {
                        "R1": [list(p) for p in sorted(pairs)],
                        "R2": [list(r) for r in sorted(rows)],
                    }
                )
            )
            address = self._start_subprocess(db_path)
        for connection in self.connections:
            connection.client = ServiceClient(*address, timeout=60)
            self.clients.append(connection.client)
        self.checker = ServiceClient(*address, timeout=60)
        self.clients.append(self.checker)
        self.round_index = 0
        if self._quiescent_mismatches():
            raise RuntimeError("warm-up answers disagree with the model")

    def _model(self):
        pairs, rows = set(self.stable[0]), set(self.stable[1])
        for connection in self.connections:
            pairs |= connection.present_pairs
            rows |= connection.present_rows
        return pairs, rows

    def _quiescent_mismatches(self) -> set[str]:
        """Both connections idle: every shape must equal the model."""
        pairs, rows = self._model()
        mismatched = set()
        for shape, (formula, head) in self.shapes.items():
            result = self.checker.call("query", {"formula": formula, "head": head})
            got = {tuple(row) for row in result["rows"]}
            if got != oracle.daemon_expected(shape, inputs.DM_MOTIF, pairs, rows):
                mismatched.add(shape)
        return mismatched

    def round(self) -> tuple[list[Op], float]:
        for connection in self.connections:
            connection.ops = []
        # A connection that dies mid-round breaks the barrier for the
        # others instead of leaving them waiting.
        barrier = threading.Barrier(self.CONNECTIONS, timeout=120)
        errors = []

        def run(connection) -> None:
            try:
                connection.run_round(
                    self.round_index, barrier, self.BLOCKS, self.QUERY_STEPS
                )
            except BaseException as error:
                errors.append(error)
                barrier.abort()

        threads = [
            threading.Thread(target=run, args=(connection,))
            for connection in self.connections
        ]
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        busy = perf_counter() - started
        if errors:
            raise RuntimeError("a connection failed mid-round") from errors[0]
        self.round_index += 1
        ops = [op for connection in self.connections for op in connection.ops]
        with self.untimed():
            for connection in self.connections:
                connection.check_replies()
            # A quiescent mismatch fails the round's queries of that shape.
            mismatched = self._quiescent_mismatches()
        for op in ops:
            if op.shape in mismatched:
                op.ok = False
        return ops, busy

    # -- observations ----------------------------------------------------

    def counters(self) -> dict:
        return dict(self.handle.service.tracer.counters)

    def engine_session(self):
        return self.handle.service.pool.session

    def trace_reports(self) -> dict:
        return {
            "service_stats": self.checker.stats(),
            "request_stage_seconds": self.stage_seconds,
            "first_request_reports": self.reports,
        }

    def _children(self) -> list[str]:
        children = []
        task_dir = Path(f"/proc/{self.process.pid}/task")
        for task in task_dir.iterdir():
            text = (task / "children").read_text().split()
            children.extend(text)
        return children

    def pool_started(self) -> bool:
        if self.process is None:
            return bool(multiprocessing.active_children())
        return bool(self._children())

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from the daemon's status")

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.handle is not None:
            self.handle.stop()
            self.handle = None
        if self.process is not None:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=30)
            self.process = None
        if self.workdir is not None:
            import shutil

            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


WORKLOADS = {
    cls.name: cls for cls in (PaperQueries, MotifUpdates, DaemonMix)
}
