"""The benchmark's workloads: one pass each, with every verdict checked.

A pass is the unit the end-to-end metrics time.  Each workload is built
by make() from a seed; run_pass() repeats the same inputs and builds
every FiniteQuasigroup afresh from its raw table, because a user pays
for that per square and the cached division tables would otherwise
carry over from one pass into the next.  probe() runs only in the traced
run: it times the layers a pass reaches only from inside the program.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from math import factorial
from time import perf_counter

from quasilab import cli
from quasilab.axb import AffineElement, TestFunction, integrate, run_verification_suite
from quasilab.cayley import FiniteQuasigroup
from quasilab.characters import (
    check_normalization,
    positive_sum_certificate,
    representation_well_defined,
    solve_characters,
    trivial_character,
)
from quasilab.identities import builtin_identity, check_identity, n1_equivalence_report
from quasilab.latin import (
    count_latin_squares_memoized,
    enumerate_with_first_row,
    first_rows,
    sample_latin_squares,
)
from quasilab.measures import solve_quasi_invariant
from quasilab.permgroup import lmlt, mlt
from quasilab.reports import validate_report

import inputs

N1 = builtin_identity("N1")
AXB_TOL = 1e-6
CORPUS_SQUARES = 150
AXB_TRIALS = 400
AXB_PROBE_TRIALS = 20
SMALL = {"corpus": 20, "axb_trials": 10, "axb_probe": 5}


class WrongVerdict(Exception):
    """The program's output disagrees with the benchmark's check."""


def expect(ok: bool, what: str):
    if not ok:
        raise WrongVerdict(what)


@dataclass
class PassResult:
    start: float
    end: float
    items: int
    # (start, end, items covered) of each latency sample
    spans: list[tuple[float, float, int]]
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Verdicts:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, name: str, fn, *args):
        """Run one check and return its result; a wrong or raised verdict is counted, not fatal."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every failure is reported in the result
            self.failed += 1
            self.errors.append(f"{name}: {exc!r}")
            return None


def build(table):
    q = FiniteQuasigroup(table)
    return q, q.is_loop()


def check_square(table, tracer):
    """The scan's per-square work, as a probe: build, loop test, N1 check."""
    q, is_loop = tracer.call("cayley", "build", build, table)
    result = tracer.call("identities", "check_identity", check_identity, q, N1)
    n = q.order
    if result.holds:
        assignments = n ** len(N1.variables)
    else:
        # assignments run in lexicographic order, so the first failure's rank counts them
        rank = 0
        for value in result.counterexample.values():
            rank = rank * n + value
        assignments = rank + 1
    tracer.note(assignments=assignments, holds=result.holds)
    expect(is_loop or not result.holds, "N1 holds on a square that is not a loop")


class ScanWorkload:
    """The exhaustive order-5 scan through the command line, run in-process."""

    def __init__(self, seed: int, workdir: str, jobs: int):
        self.jobs = jobs
        self.cpus = jobs
        self.workdir = workdir
        self.probe_rows = inputs.scan_probe_rows(seed)
        # The order-5 satisfiers of N1 are exactly the labelled copies of Z5.
        self.satisfiers = inputs.labelled_copies(inputs.cyclic(inputs.SCAN_ORDER))

    def _scan(self, out: str, tracer) -> int:
        n = inputs.SCAN_ORDER
        report_path = os.path.join(out, "scan.json")
        dump_dir = os.path.join(out, "counterexamples")
        checkpoint = os.path.join(out, "checkpoint.json")
        argv = ["kunen-scan", "--order", str(n), "--json", report_path, "--quiet",
                "--counterexample-dir", dump_dir]
        if self.jobs > 1:
            argv += ["--jobs", str(self.jobs), "--checkpoint", checkpoint]
        code = tracer.call("kunen", "scan", cli.main, argv)
        tracer.note(
            jobs=self.jobs,
            checkpoint_bytes=os.path.getsize(checkpoint) if os.path.exists(checkpoint) else 0,
        )
        expect(code == 0, f"kunen-scan exited {code}")
        with open(report_path) as fh:
            doc = json.load(fh)
        tracer.call("reports", "validate_report", validate_report, doc)
        total = tracer.call("latin", "count_latin_squares_memoized", count_latin_squares_memoized, n)
        reduced = total // (factorial(n) * factorial(n - 1))
        expect(doc["total_squares"] == total, f"total {doc['total_squares']} != {total}")
        expect(doc["n1_count"] == self.satisfiers, f"{doc['n1_count']} satisfiers")
        expect(doc["n1_loop_count"] == doc["n1_count"], "a satisfier is not a loop")
        expect(doc["loop_count"] == n * reduced, f"{doc['loop_count']} loops")
        expect(doc["kunen_holds"] and doc["counterexample_files"] == [], "counterexamples")
        expect(not os.path.exists(dump_dir), "counterexample files written")
        expect(doc["jobs"] == self.jobs, "jobs not reported")
        if self.jobs > 1:
            with open(checkpoint) as fh:
                done = json.load(fh)["completed"]
            expect(len(done) == factorial(n), f"checkpoint holds {len(done)} first rows")
            expect(sum(t["total"] for t in done.values()) == total, "checkpoint total")
        return doc["total_squares"]

    def run_pass(self, tracer) -> PassResult:
        verdicts = Verdicts()
        out = tempfile.mkdtemp(dir=self.workdir)
        start = perf_counter()
        try:
            with tracer.span("bench", "pass"):
                squares = verdicts.check("scan", self._scan, out, tracer) or 0
        finally:
            end = perf_counter()
            shutil.rmtree(out)
        # the scan shows no single square, so a pass gives one mean per-square latency
        spans = [(start, end, squares)] if squares else []
        return PassResult(start, end, squares, spans, **vars(verdicts))

    def probe(self, tracer) -> Verdicts:
        n = inputs.SCAN_ORDER
        for row in first_rows(n):
            count = tracer.call("latin", "enumerate_with_first_row", enumerate_with_first_row, n, row)
            tracer.note(squares=count)
        verdicts = Verdicts()
        for row in self.probe_rows:
            squares = []
            enumerate_with_first_row(n, row, squares.append)
            for i, table in enumerate(squares):
                verdicts.check(f"row {row} square {i}", check_square, table, tracer)
        return verdicts


def verify_table(item: inputs.Item, n1_iff_group: bool, tracer):
    """Acceptance criteria 1-5 on one table, checked against independent facts."""
    n = len(item.table)
    q, is_loop = tracer.call("cayley", "build", build, item.table)
    expect(is_loop == item.is_loop, "loop test")
    routes = tracer.call("identities", "n1_equivalence_report", n1_equivalence_report, q)
    expect(routes["agree"], "pointwise and operator routes of N1 disagree")
    if n1_iff_group:
        expect(routes["pointwise"] == item.is_group, "N1 holds exactly on the groups")
    else:
        expect(routes["pointwise"] or not item.is_group, "a group fails N1")
        expect(is_loop or not routes["pointwise"], "N1 holds on a square that is not a loop")

    solution = tracer.call("measures", "solve_quasi_invariant", solve_quasi_invariant, q)
    expect(solution.dimension == 1, f"measure space of dimension {solution.dimension}")
    expect(solution.left_cocycle.is_trivial() and solution.right_cocycle.is_trivial(),
           "non-trivial cocycle")
    expect(len(set(solution.measure.weights)) == 1, "measure is not counting measure")

    basis = tracer.call("characters", "solve_characters", solve_characters, q)
    certified = tracer.call("characters", "positive_sum_certificate", positive_sum_certificate, q)
    expect(basis == [] and certified, "solver and certificate disagree on dimension 0")

    left = tracer.call("permgroup", "lmlt", lmlt, q)
    tracer.note(order=left.order)
    both = tracer.call("permgroup", "mlt", mlt, q)
    tracer.note(order=both.order)
    expect(both.order % left.order == 0 and factorial(n) % both.order == 0, "group orders")
    if item.is_group:
        # left regular representation, and Mlt(G) = G x G / Z(G)
        expect(left.order == n and both.order == n * n // item.center_size, "group Mlt orders")

    chi = trivial_character(n)
    audit = tracer.call("characters", "representation_well_defined",
                        representation_well_defined, q, chi, pair_budget=100)
    tracer.note(group_order=audit.group_order)
    expect(audit.well_defined and audit.conflict is None, "audit found a conflict")
    expect(audit.group_order == left.order, "audit BFS and Schreier-Sims orders differ")
    if is_loop:
        normal = tracer.call("characters", "check_normalization", check_normalization, q, chi)
        expect(normal, "trivial character not normalized")


class TableWorkload:
    """A fixed list of tables, each through the per-square pipeline."""

    cpus = 1

    def __init__(self, items, n1_iff_group: bool, source_probe):
        self.items = items
        self.n1_iff_group = n1_iff_group
        self.source_probe = source_probe

    def run_pass(self, tracer) -> PassResult:
        verdicts = Verdicts()
        spans = []
        start = perf_counter()
        with tracer.span("bench", "pass"):
            for item in self.items:
                t0 = perf_counter()
                with tracer.span("bench", "item"):
                    verdicts.check(item.name, verify_table, item, self.n1_iff_group, tracer)
                spans.append((t0, perf_counter(), 1))
        return PassResult(start, perf_counter(), len(self.items), spans, **vars(verdicts))

    def probe(self, tracer) -> Verdicts:
        self.source_probe(tracer)
        verdicts = Verdicts()
        for item in self.items:
            verdicts.check(item.name, check_square, item.table, tracer)
        return verdicts


class CountingBump(TestFunction):
    """A TestFunction that tallies the integrand points it is evaluated at."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "points", 0)

    def values(self, a, b):
        out = super().values(a, b)
        object.__setattr__(self, "points", self.points + out.size)
        return out


def _rel_err(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def check_bump_trial(box, element, tracer):
    f = CountingBump(*box)
    g = AffineElement(*element)
    values = []
    for translate in (None, ("left", g), ("right", g)):
        before = f.points
        values.append(tracer.call("axb", "integrate", integrate, f, translate, tol=1e-8))
        tracer.note(points=f.points - before)
    base, left, right = values
    expect(_rel_err(left, base) <= AXB_TOL, "left invariance")
    expect(_rel_err(right / base, g.a) <= AXB_TOL, "right scaling by alpha")


class AxbWorkload:
    """The ax+b verification suite, as `quasilab axb verify` runs it."""

    cpus = 1

    def __init__(self, seed: int, trials: int, probe_trials: int):
        self.seed = seed
        self.trials = trials
        self.bumps = inputs.bump_trials(seed, probe_trials)

    def _verify(self, tracer):
        report = tracer.call("axb", "run_verification_suite", run_verification_suite,
                             trials=self.trials, tol=AXB_TOL, seed=self.seed)
        tracer.call("reports", "validate_report", validate_report, report)
        expect(report["passed"] and report["failures"] == [], f"failures {report['failures']}")
        expect(report["trials"] == self.trials, "trial count")

    def run_pass(self, tracer) -> PassResult:
        verdicts = Verdicts()
        start = perf_counter()
        with tracer.span("bench", "pass"):
            verdicts.check("axb verify", self._verify, tracer)
        end = perf_counter()
        # the suite shows no single trial, so a pass gives one mean per-trial latency
        return PassResult(start, end, self.trials, [(start, end, self.trials)], **vars(verdicts))

    def probe(self, tracer) -> Verdicts:
        verdicts = Verdicts()
        for i, (box, element) in enumerate(self.bumps):
            verdicts.check(f"bump {i}", check_bump_trial, box, element, tracer)
        return verdicts


def _corpus(seed: int, workdir: str, small: bool):
    count = SMALL["corpus"] if small else CORPUS_SQUARES

    def sample(tracer):
        tracer.call("latin", "sample_latin_squares", sample_latin_squares,
                    inputs.CORPUS_ORDER, count, seed)
        tracer.note(squares=count)

    return TableWorkload(inputs.corpus_items(seed, count), False, sample)


def _loops(seed: int, workdir: str, small: bool):
    def enumerate_source(tracer):
        n = inputs.LOOP_ORDER
        count = tracer.call("latin", "enumerate_with_first_row", enumerate_with_first_row,
                            n, tuple(range(n)))
        tracer.note(squares=count)

    # Every loop here satisfies N1 exactly when it is a group: groups do by
    # associativity, and of the reduced order-5 loops only the copies of Z5 do.
    return TableWorkload(inputs.loop_items(seed), True, enumerate_source)


def _axb(seed: int, workdir: str, small: bool):
    if small:
        return AxbWorkload(seed, SMALL["axb_trials"], SMALL["axb_probe"])
    return AxbWorkload(seed, AXB_TRIALS, AXB_PROBE_TRIALS)


MAKERS = {
    "scan-n5": lambda seed, workdir, small: ScanWorkload(seed, workdir, jobs=1),
    "scan-n5-jobs2": lambda seed, workdir, small: ScanWorkload(seed, workdir, jobs=2),
    "corpus-n6": _corpus,
    "loops": _loops,
    "haar-axb": _axb,
}


def make(name: str, seed: int, workdir: str, small: bool = False):
    """Generate a workload's inputs from its seed; small is for stand-in traced passes."""
    return MAKERS[name](seed, workdir, small)
