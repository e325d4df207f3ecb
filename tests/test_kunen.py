"""Order scans: the loop-forcing property, checkpoints, identity overrides.

Full scans search one first row per relabelling orbit, pruned by the
identity.  The tests hold them against an unreduced walk of every square
of every first row and against counts from group theory, and check on
random squares that relabelling preserves everything a scan tallies.
"""

import itertools
import json
import os
import re
from collections import Counter
from functools import cache
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quasilab import identities, kunen
from quasilab.cayley import FiniteQuasigroup, parse_table_text, validate_cayley
from quasilab.identities import (
    Multiply,
    UnknownIdentityError,
    Variable,
    builtin_identities,
    builtin_identity,
    check_identity,
    parse_identity,
    pretty,
)
from quasilab.kunen import conjugate, first_row_orbits, kunen_scan, modular_scan
from quasilab.latin import (
    OrderTooLarge,
    _backtrack,
    enumerate_with_first_row,
    first_rows,
    sample_latin_squares,
)
from quasilab.reports import validate_report

from latin_oracle import REDUCED_COUNTS
from measure_oracle import solve_by_orbits

# order: (total, satisfying, loops, satisfying loops)
N1_TALLIES = {
    1: (1, 1, 1, 1),
    2: (2, 2, 2, 2),
    3: (12, 3, 3, 3),
    4: (576, 16, 16, 16),
}


def test_full_scans_orders_1_to_4():
    for n, expected in N1_TALLIES.items():
        r = kunen_scan(n)
        got = (r["total_squares"], r["n1_count"], r["loop_count"], r["n1_loop_count"])
        assert got == expected
        assert r["kunen_holds"]
        assert r["loops_failing_n1"] == expected[2] - expected[3]
        assert r["counterexample_files"] == []
        assert r["mode"] == "full"


SHARED_FIELDS = {"kind", "order", "mode", "total_squares", "n1_count", "identity_name",
                 "jobs", "sample_size", "seed", "elapsed", "sampling_note"}


def test_scan_report_is_schema_valid():
    """Both scan kinds report the shared fields, and each its own tallies."""
    own = {
        kunen_scan: {"n1_loop_count", "loop_count", "loops_failing_n1", "kunen_holds",
                     "counterexample_files"},
        modular_scan: {"trivial_cocycle_count", "all_trivial", "dimension_one_count"},
    }
    for scan, kind in ((kunen_scan, "kunen-scan"), (modular_scan, "modular-scan")):
        doc = scan(3, identity_name="moufang_left")
        assert validate_report(doc) == kind
        assert doc.keys() == SHARED_FIELDS | own[scan]
        assert doc["sampling_note"] is None
        assert (doc["identity_name"], doc["jobs"], doc["seed"]) == ("moufang_left", 1, None)
        doc = scan(5, sample=25, seed=1)
        assert validate_report(doc) == kind
        assert "not uniformly" in doc["sampling_note"]
        assert (doc["sample_size"], doc["seed"]) == (25, 1)


def test_sample_mode_is_deterministic():
    a = kunen_scan(5, sample=40, seed=9)
    b = kunen_scan(5, sample=40, seed=9)
    assert (a["total_squares"], a["n1_count"], a["loop_count"]) == (
        40, b["n1_count"], b["loop_count"]
    )
    assert a["sample_size"] == 40
    assert a["seed"] == 9
    assert a["kunen_holds"]  # no sampled square can violate the theorem
    # sample alone asks for a sample, seeded 0, never for the full scan
    for scan in (kunen_scan, modular_scan):
        c = scan(5, sample=40)
        assert (c["mode"], c["total_squares"], c["seed"]) == ("sample", 40, 0)
        assert {**c, "elapsed": None} == {**scan(5, sample=40, seed=0), "elapsed": None}


def test_order_limits():
    with pytest.raises(OrderTooLarge) as info:
        kunen_scan(6)  # full order 6 needs the explicit opt-in
    assert info.value.limit == 5
    with pytest.raises(OrderTooLarge) as info:
        kunen_scan(7, allow_n6=True)  # past the hard enumeration limit
    assert info.value.limit == 6
    with pytest.raises(ValueError):
        kunen_scan(0)
    # what a scan would ignore is refused: a seed on a full scan, the
    # full-scan order cap's lift on a sample
    for scan in (kunen_scan, modular_scan):
        for seed in (0, 3):
            with pytest.raises(ValueError, match="seed applies only to a sample scan"):
                scan(3, seed=seed)
        with pytest.raises(ValueError, match="allow_n6 applies only to a full scan"):
            scan(6, sample=3, allow_n6=True)
    for bad in ({"jobs": 0}, {"jobs": -1}):
        with pytest.raises(ValueError):
            kunen_scan(3, **bad)
    # a sample is one unit of work: parallelism and checkpoints are refused
    for bad in ({"jobs": 2}, {"checkpoint": "unused.json"}):
        with pytest.raises(ValueError):
            kunen_scan(5, sample=5, **bad)
    for size in (0, -4):  # sample=0 is no full scan
        for scan in (kunen_scan, modular_scan):
            with pytest.raises(ValueError, match="sample must be >= 1"):
                scan(3, sample=size)
    # sampling at order 6 needs no flag
    r = kunen_scan(6, sample=5, seed=0)
    assert r["total_squares"] == 5


def test_a_checkpoint_in_a_missing_directory_is_refused_before_any_unit(monkeypatch, tmp_path):
    def no_unit(args):
        raise AssertionError("a unit ran")

    monkeypatch.setattr(kunen, "_run_unit", no_unit)
    path = str(tmp_path / "missing" / "x.json")
    for scan in (kunen_scan, modular_scan):
        with pytest.raises(ValueError, match=re.escape(path)):
            scan(3, checkpoint=path)
    assert not (tmp_path / "missing").exists()


def test_unknown_identity_name():
    with pytest.raises(UnknownIdentityError):
        kunen_scan(3, identity_name="bogus")


def test_commutativity_scan_dumps_counterexamples(tmp_path):
    # commutative non-loops exist at order 3, so scanning with the
    # commutativity identity exercises the failure path end to end
    r = kunen_scan(3, identity_name="commutativity", counterexample_dir=str(tmp_path))
    got = (r["total_squares"], r["n1_count"], r["loop_count"], r["n1_loop_count"])
    assert got == (12, 6, 3, 3)
    assert not r["kunen_holds"]
    assert len(r["counterexample_files"]) == 3
    ident = builtin_identity("commutativity")
    for path in r["counterexample_files"]:
        assert os.path.dirname(path) == str(tmp_path)
        with open(path) as fh:
            q = parse_table_text(fh.read())
        assert check_identity(q, ident).holds
        assert not q.is_loop()


def test_moufang_left_scan_also_forces_loops():
    r = kunen_scan(4, identity_name="moufang_left")
    assert (r["n1_count"], r["n1_loop_count"]) == (16, 16)
    assert r["kunen_holds"]
    assert r["identity_name"] == "moufang_left"


N1_TEXT = pretty(builtin_identity("N1"))
RUN_UNIT = kunen._run_unit


def _count_units(monkeypatch, fail_after=None):
    """Wrap the scan's unit function; optionally interrupt after k units."""
    calls = []

    def counting(args):
        if len(calls) == fail_after:
            raise KeyboardInterrupt
        calls.append(args[2])
        return RUN_UNIT(args)

    monkeypatch.setattr(kunen, "_run_unit", counting)
    return calls


def _key(row) -> str:
    return ",".join(map(str, row))


def _fields(report) -> dict:
    return {k: v for k, v in report.items() if k != "elapsed"}


def test_checkpoint_round_trip(tmp_path, monkeypatch):
    path = str(tmp_path / "scan4.json")
    first = kunen_scan(4, checkpoint=path)
    with open(path) as fh:
        data = json.load(fh)
    assert data["order"] == 4
    assert data["identity"] == N1_TEXT
    assert data["kind"] == "kunen"
    assert len(data["completed"]) == 24  # one entry per first row
    assert data["completed"]["0,1,2,3"]["total"] == 24
    assert sum(entry["total"] for entry in data["completed"].values()) == 576

    # full resume: everything comes from the checkpoint
    calls = _count_units(monkeypatch)
    resumed = kunen_scan(4, checkpoint=path)
    assert calls == []
    assert _fields(resumed) == _fields(first)

    # partial resume: drop every other row; each orbit missing a row is
    # rescanned whole, and no other
    rows = sorted(data["completed"])
    dropped = set(rows[1::2])
    with open(path, "w") as fh:
        json.dump(
            {"order": 4, "identity": N1_TEXT, "kind": "kunen",
             "completed": {row: data["completed"][row] for row in rows[::2]}},
            fh,
        )
    partial = kunen_scan(4, checkpoint=path)
    assert len(calls) == 6  # of the 7 orbits, only {0,1,2,3} is whole
    assert all(any(_key(row) in dropped for row, _ in orbit) for orbit in calls)
    assert _fields(partial) == _fields(first)
    with open(path) as fh:
        assert json.load(fh)["completed"] == data["completed"]


def test_checkpoint_for_other_scan_is_ignored(tmp_path, monkeypatch):
    path = str(tmp_path / "other.json")
    with open(path, "w") as fh:
        json.dump({"order": 3, "identity": "commutativity", "completed": {"bad": {}}}, fh)
    r = kunen_scan(3, checkpoint=path)  # N1 scan: stale file must not poison it
    assert (r["total_squares"], r["n1_count"]) == (12, 3)

    # the file now holds a loop scan; a modular scan of the same order and
    # identity must rescan every row rather than reuse the loop tallies
    calls = _count_units(monkeypatch)
    m = modular_scan(3, checkpoint=path)
    assert len(calls) == 4  # every orbit of the 6 first rows
    assert (m["total_squares"], m["n1_count"], m["trivial_cocycle_count"]) == (12, 3, 3)
    with open(path) as fh:
        assert json.load(fh)["kind"] == "modular"


@pytest.mark.parametrize("scan", [kunen_scan, modular_scan])
def test_interrupted_scan_resumes_to_the_same_report(scan, tmp_path, monkeypatch):
    path = str(tmp_path / "interrupted.json")
    uninterrupted = scan(4)
    k = 3
    _count_units(monkeypatch, fail_after=k)
    with pytest.raises(KeyboardInterrupt):
        scan(4, checkpoint=path)
    with open(path) as fh:
        completed = json.load(fh)["completed"]
    # the rows of the first three orbits: {0123}, {0132, 0213, 0321}, {0231, 0312}
    assert sorted(completed) == ["0,1,2,3", "0,1,3,2", "0,2,1,3", "0,2,3,1",
                                 "0,3,1,2", "0,3,2,1"]

    calls = _count_units(monkeypatch)
    resumed = scan(4, checkpoint=path)
    assert len(calls) == 7 - k
    assert _fields(resumed) == _fields(uninterrupted)
    assert not os.path.exists(path + ".tmp")


def test_parallel_scan_matches_serial(tmp_path):
    serial = kunen_scan(4, jobs=1)
    parallel = kunen_scan(4, jobs=2)
    assert parallel["jobs"] == 2
    assert (parallel["total_squares"], parallel["n1_count"], parallel["loop_count"]) == (
        serial["total_squares"],
        serial["n1_count"],
        serial["loop_count"],
    )
    path = str(tmp_path / "modular.json")
    parallel = modular_scan(4, jobs=2, checkpoint=path)
    assert _fields(parallel) == {**_fields(modular_scan(4)), "jobs": 2}
    with open(path) as fh:
        assert len(json.load(fh)["completed"]) == 24


def test_modular_scan_order_3():
    m = modular_scan(3)
    assert m["total_squares"] == 12
    assert m["n1_count"] == 3
    assert m["trivial_cocycle_count"] == 3
    assert m["all_trivial"]
    assert m["dimension_one_count"] == 3
    assert validate_report(m) == "modular-scan"


def test_modular_scan_sample_mode():
    m = modular_scan(5, sample=30, seed=2)
    assert m["total_squares"] == 30
    assert m["all_trivial"]
    assert m["trivial_cocycle_count"] == m["n1_count"]


# orbits of the first rows under the relabellings fixing 0, n = 1..6
ORBIT_COUNTS = {1: 1, 2: 2, 3: 4, 4: 7, 5: 12, 6: 19}


def _relabelled_row(row, sigma):
    """sigma o row o sigma^-1, composed literally."""
    inverse = [0] * len(sigma)
    for x, image in enumerate(sigma):
        inverse[image] = x
    return tuple(sigma[row[inverse[y]]] for y in range(len(row)))


@pytest.mark.parametrize("n", sorted(ORBIT_COUNTS))
def test_first_row_orbits_partition_the_first_rows(n):
    orbits = first_row_orbits(n)
    assert len(orbits) == ORBIT_COUNTS[n]
    members = [row for orbit in orbits for row, _ in orbit]
    assert sorted(members) == list(first_rows(n))  # a partition: no row twice
    reps = [orbit[0][0] for orbit in orbits]
    assert reps == sorted(reps)
    for orbit in orbits:
        rep = orbit[0][0]
        assert [row for row, _ in orbit] == sorted(row for row, _ in orbit)
        assert orbit[0][1] == tuple(range(n))
        for row, sigma in orbit:
            assert sigma[0] == 0 and sorted(sigma) == list(range(n))
            assert _relabelled_row(rep, sigma) == row
        # closed under every relabelling fixing 0: a whole orbit, whose
        # minimum is rep
        rows = {row for row, _ in orbit}
        for tail in itertools.permutations(range(1, n)):
            assert {_relabelled_row(row, (0, *tail)) for row in rows} == rows


@cache
def _unreduced_walk(n: int, identity_text: str) -> dict:
    """The checkpoint entries of both scan kinds, keyed by kind.

    The walk enumerates every square of every first row and checks each
    square once.  Under "measures" it also keeps, per row, how many
    satisfiers the orbit oracle, not the package's solver, finds with
    trivial cocycles and with a one-dimensional measure space.  The
    result is shared between callers, who must not change it.
    """
    identity = parse_identity(identity_text)
    walks = {"kunen": {}, "modular": {}, "measures": {}}
    for row in first_rows(n):
        loops, found, measures = Counter(), [], Counter()

        def visit(square):
            q = FiniteQuasigroup(square)
            n1, loop = check_identity(q, identity).holds, q.is_loop()
            if n1 or loop:
                loops["n1"] += n1
                loops["loop"] += loop
                loops["n1_loop"] += n1 and loop
                if n1 and not loop:
                    found.append(square)
            if n1:
                solution = solve_by_orbits(q)
                ratios = solution.left_ratios + solution.right_ratios
                measures["n1"] += 1
                measures["trivial"] += all(r == 1 for r in ratios)
                measures["dimension_one"] += solution.dimension == 1

        total = enumerate_with_first_row(n, row, visit)
        walks["kunen"][_key(row)] = {"total": total, **loops, "counterexamples": found}
        satisfiers = {"n1": measures["n1"]} if measures else {}
        walks["modular"][_key(row)] = {"total": total, **satisfiers, "counterexamples": []}
        walks["measures"][_key(row)] = dict(measures)
    return json.loads(json.dumps(walks))


def _per_row_view(n: int, completed: dict) -> dict:
    """A checkpoint's entries with each row's own counterexamples, as the dump reads them."""
    view = {key: dict(entry) for key, entry in completed.items()}
    for row, squares in kunen._per_row(first_row_orbits(n), completed):
        view[_key(row)]["counterexamples"] = squares
    return json.loads(json.dumps(view))


def _parent_layout(entries) -> dict:
    """Loop entries as the scan wrote them while every row listed its own squares.

    A row with a satisfier held n1 and n1_loop, zero or not; any other
    row held only its total and an empty list.
    """
    return {
        key: {
            "total": entry["total"],
            **({"n1": entry["n1"], "n1_loop": entry["n1_loop"]} if entry.get("n1") else {}),
            "counterexamples": entry["counterexamples"],
        }
        for key, entry in entries.items()
    }


def _without_loops(entries) -> dict:
    """Checkpoint entries without their loop and zero counts."""
    return {
        key: {k: v for k, v in entry.items() if k != "loop" and v != 0}
        for key, entry in entries.items()
    }


ORACLE_CASES = [
    (n, kind, "N1") for n in range(1, 5) for kind in ("kunen", "modular")
] + [
    (3, "kunen", "commutativity"),
    (4, "kunen", "commutativity"),
    (5, "kunen", "N1"),
    (5, "modular", "N1"),
    (4, "kunen", "moufang_left"),
    (4, "kunen", "associativity"),
]


@pytest.mark.parametrize("n, kind, name", ORACLE_CASES)
def test_reduced_scan_matches_the_unreduced_walk(n, kind, name, tmp_path):
    path = str(tmp_path / "reduced.json")
    scan = kunen_scan if kind == "kunen" else modular_scan
    dumps = {"counterexample_dir": str(tmp_path)} if kind == "kunen" else {}
    report = scan(n, checkpoint=path, identity_name=name, **dumps)  # dumps kept off the cwd
    with open(path) as fh:
        completed = json.load(fh)["completed"]
    walk = _unreduced_walk(n, pretty(builtin_identity(name)))
    # both kinds run one scan, so a modular file holds what a loop file
    # does; the scan takes its loops by theorem, so its rows keep no loop
    # count, and the walk counts every loop square by square
    view = _per_row_view(n, completed)
    assert _without_loops(view) == _without_loops(walk["kunen"])
    if kind == "kunen":
        assert sum(entry.get("loop", 0) for entry in walk[kind].values()) == report["loop_count"]
    if (n, kind, name) == (5, "kunen", "N1"):
        # no walk reaches order 6; R(6) = 9,408 is the published count
        # (McKay and Wanless 2005) of the reduced squares
        assert kunen_scan(6, allow_n6=True)["loop_count"] == 6 * 9408
    if kind == "modular":
        # the scan counts satisfiers and takes their measures by theorem;
        # the orbit oracle solves each satisfier on its own
        measures = {key: Counter(tally) for key, tally in walk["measures"].items()}
        for key, tally in measures.items():
            n1 = completed[key].get("n1", 0)
            assert tally["trivial"] == tally["dimension_one"] == n1
        assert sum(t["trivial"] for t in measures.values()) == report["trivial_cocycle_count"]
        assert sum(t["dimension_one"] for t in measures.values()) == report["dimension_one_count"]
    if name == "commutativity":
        # 3 and 80 commutative non-loops; at order 4 rows hold several, so
        # the relabelled counterexamples must also be sorted
        found = [len(e["counterexamples"]) for e in view.values()]
        assert sum(found) == {3: 3, 4: 80}[n]
        # each orbit stores its representative's squares only
        reps = {_key(orbit[0][0]) for orbit in first_row_orbits(n)}
        stored = {key: len(e["counterexamples"]) for key, e in completed.items()}
        assert {key for key, count in stored.items() if count} <= reps
        assert sum(stored.values()) < sum(found)


def _cyclic(n: int):
    return [[(x + y) % n for y in range(n)] for x in range(n)]


def _symmetric3():
    perms = list(itertools.permutations(range(3)))
    return [[perms.index(tuple(p[i] for i in q)) for q in perms] for p in perms]


# every group of order n <= 6, each built from its own rule
GROUPS = {
    1: [_cyclic(1)],
    2: [_cyclic(2)],
    3: [_cyclic(3)],
    4: [_cyclic(4), [[x ^ y for y in range(4)] for x in range(4)]],
    5: [_cyclic(5)],
    6: [_cyclic(6), _symmetric3()],
}


def _automorphism_count(table) -> int:
    n = len(table)
    return sum(
        all(phi[table[x][y]] == table[phi[x]][phi[y]] for x in range(n) for y in range(n))
        for phi in itertools.permutations(range(n))
    )


def test_group_oracle_counts_the_labelled_groups():
    labelled = {
        n: sum(factorial(n) // _automorphism_count(g) for g in groups)
        for n, groups in GROUPS.items()
    }
    assert labelled == {1: 1, 2: 2, 3: 3, 4: 16, 5: 30, 6: 480}


@pytest.mark.parametrize("n", range(1, 6))
def test_full_scan_counts_match_group_theory(n):
    """Satisfiers are the labelled groups, loops n times the reduced squares.

    An (N1) quasigroup is a Moufang loop (Kunen 1996), and a Moufang loop
    of order below 12 is a group (Chein 1978), so the satisfiers are the
    n!/|Aut G| labelled copies of each group G of order n.  A loop with
    identity e relabels by the transposition (0 e) onto one with identity
    0, whose table is a reduced square.
    """
    r = kunen_scan(n)
    assert r["n1_count"] == r["n1_loop_count"]
    assert r["n1_count"] == sum(factorial(n) // _automorphism_count(g) for g in GROUPS[n])
    assert r["loop_count"] == n * REDUCED_COUNTS[n]


def test_a_full_scan_refuses_an_identity_with_a_division(monkeypatch, tmp_path):
    monkeypatch.setitem(identities._BUILTIN_TEXT, "left_division", "(x\\(x*y)) = y")
    for scan in (kunen_scan, modular_scan):
        with pytest.raises(ValueError, match="multiplication only"):
            scan(3, identity_name="left_division")
    # a sample checks whole squares, on which divisions are defined
    r = kunen_scan(3, sample=5, identity_name="left_division",
                   counterexample_dir=str(tmp_path))
    assert r["n1_count"] == 5


def _pruned(n, row, identity) -> list:
    allowed = [(1 << n) - 1] * (n * n)
    return list(_backtrack(n, row, None, allowed, kunen._cell_check(identity, n, allowed)))


def _filtered(n, row, identity) -> list:
    squares = []
    enumerate_with_first_row(n, row, squares.append)
    return [sq for sq in squares if check_identity(FiniteQuasigroup(sq), identity).holds]


def _terms(draw, names, depth):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(names))
    left, right = _terms(draw, names, depth - 1), _terms(draw, names, depth - 1)
    return f"({left}*{right})"


@st.composite
def identities_and_first_rows(draw):
    """A multiplication-only identity in 1-3 variables, depth <= 3, and a first row."""
    names = "xyz"[: draw(st.integers(1, 3))]
    text = f"{_terms(draw, names, 3)} = {_terms(draw, names, 3)}"
    n = draw(st.integers(1, 4))
    return parse_identity(text), n, tuple(draw(st.permutations(range(n))))


@given(identities_and_first_rows())
@example((parse_identity("x = y"), 3, (0, 1, 2)))  # fails with no product read
@example((parse_identity("(x*y) = (x*y)"), 3, (1, 2, 0)))
@example((parse_identity("x = (x*y)"), 3, (0, 1, 2)))  # pins on an empty table
@example((parse_identity("((x*y)*y) = x"), 3, (0, 1, 2)))  # pins the lhs's hole
@example((parse_identity("((x*y)*y) = x"), 4, (0, 1, 2, 3)))
@example((parse_identity("(x*(x*x)) = x"), 4, (1, 0, 3, 2)))  # a first-row pin holds
@example((parse_identity("(x*(x*x)) = x"), 4, (1, 2, 3, 0)))  # and one fails
def test_cell_checked_search_matches_the_filtered_enumeration(case):
    identity, n, row = case
    assert _pruned(n, row, identity) == _filtered(n, row, identity)


def _closure(function) -> dict:
    """A closure's free variables by name, to read the check's watch lists."""
    cells = (cell.cell_contents for cell in function.__closure__)
    return dict(zip(function.__code__.co_freevars, cells))


def _instance_state(identity, assignment, table, n):
    """("decided", holds), ("forced", (cell, value)) or ("open", None).

    Evaluated on the terms, apart from the straight-line program.  An
    instance is forced when one side is defined and the other is a product
    whose operands are, but whose cell is empty.
    """
    env = dict(zip(identity.variables, assignment))

    def value(term):
        if isinstance(term, Variable):
            return env[term.name]
        left, right = value(term.left), value(term.right)
        if left is None or right is None or table[left * n + right] < 0:
            return None
        return table[left * n + right]

    def empty_cell(term):
        if isinstance(term, Multiply):
            left, right = value(term.left), value(term.right)
            if left is not None and right is not None:
                return left * n + right
        return None

    lhs, rhs = value(identity.lhs), value(identity.rhs)
    if lhs is not None and rhs is not None:
        return "decided", lhs == rhs
    for defined, other in ((lhs, identity.rhs), (rhs, identity.lhs)):
        if defined is not None and empty_cell(other) is not None:
            return "forced", (empty_cell(other), defined)
    return "open", None


def _assert_watched_and_pinned(identity, n, allowed, before, check, grid, pos):
    """The check's state after it accepted the cell at pos.

    Each open instance of identity waits once on the cells after pos, and
    a decided or forced one not at all.  Each narrowed mask there is the
    pin of a forced instance, and each mask the call narrowed is clear of
    the filled cells in its row and column.
    """
    size, k = n * n, len(identity.variables)
    table = [grid[c // n][c % n] if c <= pos else -1 for c in range(size)]
    watch = _closure(check)["watch"]
    waiting = Counter(tuple(regs[:k]) for c in range(pos + 1, size) for regs, _ in watch[c])
    pins = {}
    for a in itertools.product(range(n), repeat=k):
        state, detail = _instance_state(identity, a, table, n)
        if state == "decided":
            assert detail
        if state == "forced":
            cell, v = detail
            assert pins.setdefault(cell, v) == v
        assert waiting[a] == (state == "open"), (a, state)
    for c in range(size):
        if c <= pos:
            assert allowed[c] >> table[c] & 1
        elif c in pins:
            v = pins[c]
            assert allowed[c] == 1 << v
            if before[c] != allowed[c]:
                assert v not in table[c - c % n : c] and v not in table[c % n : c : n]
        else:
            assert allowed[c] == (1 << n) - 1


def _search_asserting_the_invariant(identity, n, row) -> list:
    allowed = [(1 << n) - 1] * (n * n)
    check = kunen._cell_check(identity, n, allowed)

    def asserting(grid, pos):
        before = list(allowed)
        if not check(grid, pos):
            return False
        _assert_watched_and_pinned(identity, n, allowed, before, check, grid, pos)
        return True

    return list(_backtrack(n, row, None, allowed, asserting))


@given(identities_and_first_rows())
@example((parse_identity("x = (x*y)"), 1, (0,)))
@example((parse_identity("((x*y)*y) = x"), 4, (0, 1, 2, 3)))
def test_the_watch_lists_and_pins_track_every_open_instance(case):
    identity, n, row = case
    assert _search_asserting_the_invariant(identity, n, row) == _filtered(n, row, identity)


@pytest.mark.parametrize("n, name", [(4, "N1"), (4, "moufang_left"), (5, "N1")])
def test_the_watch_lists_and_pins_track_the_builtins(n, name):
    identity = builtin_identity(name)
    for orbit in first_row_orbits(n):
        rep = orbit[0][0]
        assert _search_asserting_the_invariant(identity, n, rep) == _pruned(n, rep, identity)


@pytest.mark.parametrize("name", ["moufang_left", "associativity", "commutativity"])
def test_cell_checked_search_matches_on_the_order_5_representatives(name):
    identity = builtin_identity(name)
    for orbit in first_row_orbits(5):
        rep = orbit[0][0]
        assert _pruned(5, rep, identity) == _filtered(5, rep, identity)


def test_the_order_5_search_fills_few_cells(monkeypatch):
    """Fewer than half the 2,712 cells that the N1 search filled without pins."""
    filled = []
    cell_check = kunen._cell_check

    def counting(identity, n, allowed):
        check = cell_check(identity, n, allowed)

        def counted(grid, pos):
            filled.append(pos)
            return check(grid, pos)

        return counted

    monkeypatch.setattr(kunen, "_cell_check", counting)
    for name in ("N1", "moufang_left"):
        filled.clear()
        r = kunen_scan(5, identity_name=name)
        assert (r["n1_count"], r["n1_loop_count"], r["loop_count"]) == (30, 30, 280)
        assert 0 < len(filled) < 2712 // 2, name


def test_a_single_unit_runs_without_a_pool(tmp_path, monkeypatch):
    path = str(tmp_path / "resume.json")
    serial = kunen_scan(4, checkpoint=path)
    with open(path) as fh:
        data = json.load(fh)
    del data["completed"]["0,1,2,3"]  # the identity row is an orbit of its own
    with open(path, "w") as fh:
        json.dump(data, fh)

    def no_pool(*args, **kwargs):
        raise RuntimeError("a worker pool was started")

    monkeypatch.setattr(kunen, "Pool", no_pool)
    resumed = kunen_scan(4, jobs=2, checkpoint=path)
    assert _fields(resumed) == {**_fields(serial), "jobs": 2}
    r = kunen_scan(1, jobs=2)  # order 1 is a single orbit
    assert (r["jobs"], r["n1_count"], r["loop_count"]) == (2, 1, 1)
    assert modular_scan(1, jobs=2)["n1_count"] == 1
    with pytest.raises(RuntimeError, match="pool"):  # two units still share one
        kunen_scan(2, jobs=2)


def test_the_pool_never_outnumbers_the_orbits_left(tmp_path, monkeypatch):
    """A pool gets min(jobs, pending units) workers; this one starts none."""
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(kunen, "Pool", RecordingPool)
    serial = kunen_scan(4)
    assert _fields(kunen_scan(4, jobs=5000)) == {**_fields(serial), "jobs": 5000}
    assert modular_scan(4, jobs=5000)["n1_count"] == serial["n1_count"]
    kunen_scan(4, jobs=3)
    assert sizes == [7, 7, 3]  # order 4 has 7 orbits of first rows

    path = str(tmp_path / "resume.json")
    kunen_scan(4, checkpoint=path)
    with open(path) as fh:
        data = json.load(fh)
    for row in ("0,1,2,3", "0,1,3,2", "0,2,3,1"):  # three orbits
        del data["completed"][row]
    with open(path, "w") as fh:
        json.dump(data, fh)
    sizes.clear()
    assert _fields(kunen_scan(4, jobs=5000, checkpoint=path)) == {
        **_fields(serial), "jobs": 5000
    }
    assert sizes == [3]


@pytest.mark.parametrize("scan, kind", [(kunen_scan, "kunen"), (modular_scan, "modular")])
def test_checkpoint_of_the_unreduced_walk_resumes_with_no_units(
    scan, kind, tmp_path, monkeypatch
):
    path = str(tmp_path / "unreduced.json")
    with open(path, "w") as fh:
        json.dump({"order": 4, "identity": N1_TEXT, "kind": kind,
                   "completed": _unreduced_walk(4, N1_TEXT)[kind]}, fh)
    fresh = scan(4)
    calls = _count_units(monkeypatch)
    assert _fields(scan(4, checkpoint=path)) == _fields(fresh)
    assert calls == []


def _resume_from_old_entries(scan, kind, old_format, tmp_path, monkeypatch) -> set:
    """Resume an order-4 scan from entries in an older format.

    With three orbits missing only those run, and with none missing no
    unit runs; both times the report is the uninterrupted one.  Returns
    the keys of the missing rows.
    """
    orbits = first_row_orbits(4)
    missing = [orbits[i] for i in (2, 4, 6)]
    dropped = {_key(row) for orbit in missing for row, _ in orbit}
    partial = {k: v for k, v in old_format.items() if k not in dropped}
    path = str(tmp_path / "old.json")
    uninterrupted = scan(4)
    calls = _count_units(monkeypatch)
    for completed, runs in ((partial, missing), (old_format, [])):
        with open(path, "w") as fh:
            json.dump({"order": 4, "identity": N1_TEXT, "kind": kind,
                       "completed": completed}, fh)
        calls.clear()
        assert _fields(scan(4, checkpoint=path)) == _fields(uninterrupted)
        assert calls == runs
    return dropped


def test_a_modular_checkpoint_with_measure_tallies_resumes(tmp_path, monkeypatch):
    """Entries that also hold trivial and dimension_one counts still resume."""
    walk = _unreduced_walk(4, N1_TEXT)
    old_format = {
        key: {"total": entry["total"], **walk["measures"][key], "counterexamples": []}
        for key, entry in walk["modular"].items()
    }
    assert sum(entry.get("trivial", 0) for entry in old_format.values()) == 16
    dropped = _resume_from_old_entries(modular_scan, "modular", old_format, tmp_path, monkeypatch)
    assert any("n1" in old_format[key] for key in dropped)  # satisfiers are recounted


def test_a_loop_checkpoint_with_loop_counts_resumes(tmp_path, monkeypatch):
    """Entries that hold loop counts, as earlier versions wrote them, still resume.

    Those versions wrote the walk's entries: n1, loop and n1_loop in every
    row with a satisfier or a loop.  The scan must replace their loop
    counts by its own, not add to them.
    """
    old_format = _unreduced_walk(4, N1_TEXT)["kunen"]
    assert sum(entry.get("loop", 0) for entry in old_format.values()) == 16
    dropped = _resume_from_old_entries(kunen_scan, "kunen", old_format, tmp_path, monkeypatch)
    assert any(old_format[key].get("loop") for key in dropped)
    assert any(old_format[key].get("loop") for key in old_format.keys() - dropped)


def _dumped(report) -> list:
    """The report's counterexample files, by name and text, in its order."""
    files = []
    for path in report["counterexample_files"]:
        with open(path) as fh:
            files.append((os.path.basename(path), fh.read()))
    return files


def test_a_checkpoint_with_squares_under_every_row_resumes(tmp_path, monkeypatch):
    """Loop entries that list every row's own squares, as earlier versions did, resume.

    Whole, the file runs no unit; with three orbits missing only those
    run.  Both give the uninterrupted report and dump the same files, and
    both leave the file with squares under representatives only, whose
    per-row view is the old file: the whole file is written back once,
    though no orbit is pending.  A refused file is left as it was.
    """
    text = pretty(builtin_identity("commutativity"))
    old_format = _parent_layout(_unreduced_walk(4, text)["kunen"])
    comm = {"identity_name": "commutativity"}
    fresh = kunen_scan(4, **comm, counterexample_dir=str(tmp_path / "fresh"))
    orbits = first_row_orbits(4)
    reps = {_key(orbit[0][0]) for orbit in orbits}
    missing = [orbits[i] for i in (2, 4, 6)]
    dropped = {_key(row) for orbit in missing for row, _ in orbit}
    assert any(old_format[key]["counterexamples"] for key in dropped - reps)
    partial_format = {k: v for k, v in old_format.items() if k not in dropped}
    path = tmp_path / "old.json"
    calls = _count_units(monkeypatch)
    for name, completed, runs in (("partial", partial_format, missing), ("whole", old_format, [])):
        path.write_text(json.dumps({"order": 4, "identity": text, "kind": "kunen",
                                    "completed": completed}))
        calls.clear()
        resumed = kunen_scan(4, **comm, checkpoint=str(path),
                             counterexample_dir=str(tmp_path / name))
        assert calls == runs
        assert {**_fields(resumed), "counterexample_files": None} == {
            **_fields(fresh), "counterexample_files": None
        }
        assert _dumped(resumed) == _dumped(fresh)
        assert len(_dumped(fresh)) == 80
        written = json.loads(path.read_text())["completed"]
        assert all(not e["counterexamples"] for k, e in written.items() if k not in reps)
        assert _per_row_view(4, written) == old_format

    # another row listing fewer squares than its counts is refused, as before;
    # the last such row, so that rows with lists to drop come before it
    row = max(k for k in old_format.keys() - reps if len(old_format[k]["counterexamples"]) > 1)
    squares = old_format[row]["counterexamples"][1:]
    short = {**old_format, row: {**old_format[row], "counterexamples": squares}}
    path.write_text(json.dumps({"order": 4, "identity": text, "kind": "kunen",
                                "completed": short}))
    with pytest.raises(ValueError, match="n1 must be n1_loop plus the counterexamples"):
        kunen_scan(4, **comm, checkpoint=str(path), counterexample_dir=str(tmp_path / "short"))
    assert not (tmp_path / "short").exists()
    assert json.loads(path.read_text())["completed"] == short


def test_a_modular_scan_counts_no_loops_and_relabels_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a modular unit relabels nothing")

    monkeypatch.setattr(kunen, "conjugate", refuse)
    m = modular_scan(5)
    assert (m["n1_count"], m["trivial_cocycle_count"], m["dimension_one_count"]) == (30, 30, 30)
    # 80 of the commutative squares of order 4 are non-loops (the loop scan
    # relabels each into its row), and all 16 loops are abelian groups
    m = modular_scan(4, identity_name="commutativity")
    assert (m["n1_count"], m["trivial_cocycle_count"], m["all_trivial"]) == (96, 96, True)


@st.composite
def squares_and_relabellings(draw):
    """A square of order <= 6 and a relabelling sigma with sigma(0) = 0.

    Half the squares are groups Z_n relabelled by an arbitrary tau, so that
    loops and identity satisfiers are drawn as often as sampled squares.
    """
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        square = sample_latin_squares(n, 1, draw(st.integers(0, 2**32)))[0]
    else:
        tau = draw(st.permutations(range(n)))
        inverse = {t: x for x, t in enumerate(tau)}
        square = tuple(
            tuple(tau[(inverse[x] + inverse[y]) % n] for y in range(n)) for x in range(n)
        )
    sigma = (0, *draw(st.permutations(range(1, n))))
    return square, sigma


@given(squares_and_relabellings())
def test_relabelling_preserves_what_a_scan_tallies(case):
    square, sigma = case
    relabelled = conjugate(square, sigma)
    n = len(square)
    for x in range(n):
        for y in range(n):
            assert relabelled[sigma[x]][sigma[y]] == sigma[square[x][y]]
    q, r = validate_cayley(square), validate_cayley(relabelled)
    assert relabelled[0] == _relabelled_row(square[0], sigma)
    for identity in builtin_identities().values():
        assert check_identity(q, identity).holds == check_identity(r, identity).holds
    assert q.is_loop() == r.is_loop()
    a, b = solve_by_orbits(q), solve_by_orbits(r)
    assert a.dimension == b.dimension
    for side in ("left_ratios", "right_ratios"):
        assert (set(getattr(a, side)) == {1}) == (set(getattr(b, side)) == {1})


@pytest.mark.parametrize("name", ["N1", "commutativity"])
def test_checkpoint_bytes_do_not_depend_on_which_orbit_finishes_first(
    tmp_path, monkeypatch, name
):
    identity = builtin_identity(name)

    def scan(jobs, path):
        kunen._scan(5, "kunen", identity, jobs=jobs, checkpoint=str(path))
        return path.read_bytes()

    serial = scan(1, tmp_path / "serial.json")
    assert scan(2, tmp_path / "jobs2.json") == serial

    class ReversingPool:
        """Finishes the orbits last to first, in this process."""

        def __init__(self, processes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, items):
            return reversed([fn(item) for item in items])

    monkeypatch.setattr(kunen, "Pool", ReversingPool)
    assert scan(2, tmp_path / "reversed.json") == serial
