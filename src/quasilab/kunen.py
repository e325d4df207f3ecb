"""Empirical scans over Latin squares: (N1) versus loop structure.

The theorem under test: every quasigroup satisfying (N1) is a loop.  A
scan therefore reports, over every square of a given order, how many
satisfy (N1), how many are loops, and how many do both; the equality
n1_loop_count == n1_count is the verified property.  Any square that
satisfies the identity without being a loop would be a counterexample
and is dumped in full as a Cayley table text file (this is expected to
never happen).

Both scan kinds run one scan; the modular report reads only its
satisfier count, since the measures are settled by theorem.  A sample
scan tallies its squares directly.  Full scans partition the enumeration
tree by first row.  A relabelling sigma with sigma(0) = 0 maps the
squares with first row r bijectively onto those with first row
sigma o r o sigma^-1, by T'(sigma x, sigma y) = sigma(T(x, y)), and
preserves every tally a scan keeps (a term identity, loopness).  So a
work unit is one orbit of first rows: only its smallest row, the
representative, is searched, and its counts hold for every row of the
orbit.  Its counterexamples are stored once, and only the loop report's
dump relabels them into every row (_per_row).  Units split between this
process and child processes (Pool), and reports merge deterministically
in lexicographic first-row order.  A JSON checkpoint file holds one
entry per first row, rewritten as each orbit finishes, so an
interrupted scan resumes.

A unit does not walk every square of its row.  Its satisfiers come from
a search in the style of the finite-model builders Mace4 and SEM, which
checks each instance of the identity as the cells it reads fill
(_cell_check).  The search prunes with the identity only, never with
loopness, and each square it emits is checked again in full by the
tally, so a search defect could lose a satisfier but never invent one.
Every row's total
is count_latin_squares_memoized(n) / n!, since permuting columns maps the
squares with one first row onto those with any other.  The loops are
counted by theorem: relabelling by the transposition (0 e) maps the
loops with identity e one to one onto those with identity 0, the reduced
squares (first row and column in order), of which there are R(n) =
L(n) / (n! (n - 1)!) (McKay and Wanless, "On the number of Latin
squares", 2005).  So there are n R(n) loops, n times the row total over
(n - 1)!.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from collections import Counter

from .cayley import CayleyError, FiniteQuasigroup, format_table_text, validate_cayley
from .identities import builtin_identity, check_identity, compile_identity, pretty
from .latin import (
    FULL_ENUMERATION_LIMIT,
    OrderTooLarge,
    _backtrack,
    count_latin_squares_memoized,
    first_rows,
    sample_latin_squares,
)
from .perm import compose_images, invert_images

FULL_SCAN_DEFAULT_LIMIT = 5


SAMPLING_NOTE = (
    "samples are reproducible per seed but not uniformly distributed over Latin squares"
)


def _tally(identity, squares) -> tuple[Counter, list]:
    """Tally (N1), loops and both over squares; keep (N1)-satisfying non-loops."""
    counts, counterexamples = Counter(), []
    for square in squares:
        q = FiniteQuasigroup(square)
        n1 = check_identity(q, identity).holds
        loop = q.is_loop()
        if n1 or loop:  # rare: most squares touch no counter
            counts["n1"] += n1
            counts["loop"] += loop
            counts["n1_loop"] += n1 and loop
            if n1 and not loop:
                counterexamples.append(square)
    return counts, counterexamples


def first_row_orbits(n: int) -> list[tuple]:
    """The orbits of first_rows(n) under the relabellings that fix 0.

    Each orbit is a tuple of (row, sigma) pairs in lexicographic row
    order, where sigma fixes 0 and maps the orbit's representative onto
    row as sigma o rep o sigma^-1.  The representative is the orbit's
    smallest row, so it comes first, paired with the identity; orbits
    come in order of their representatives.
    """
    sigmas = [(0, *p) for p in itertools.permutations(range(1, n))]
    orbits, seen = [], set()
    for rep in first_rows(n):
        if rep in seen:
            continue
        members = {}
        for sigma in sigmas:  # the identity comes first, so rep keeps it
            members.setdefault(_relabel_row(rep, sigma, invert_images(sigma)), sigma)
        seen.update(members)
        orbits.append(tuple(sorted(members.items())))
    return orbits


def _relabel_row(row, sigma, inverse) -> tuple[int, ...]:
    """Row sigma x of the relabelled square, from row x: sigma o row o sigma^-1."""
    return compose_images(sigma, compose_images(row, inverse))


def conjugate(square, sigma, relabelled=None) -> tuple[tuple[int, ...], ...]:
    """The relabelled square T' with T'(sigma x, sigma y) = sigma(T(x, y)).

    relabelled, a dict passed to every call with this sigma, keeps each
    row's relabelled row, so a row that many squares share is relabelled
    once.
    """
    inverse = invert_images(sigma)
    relabelled = {} if relabelled is None else relabelled
    rows = []
    for row in map(tuple, compose_images(square, inverse)):  # row x goes to place sigma x
        new = relabelled.get(row)
        if new is None:
            new = relabelled[row] = _relabel_row(row, sigma, inverse)
        rows.append(new)
    return tuple(rows)


def _cell_check(identity, n: int, allowed):
    """The cell check of the pruned search: no decided instance of identity fails.

    It is the search's evaluator of the straight-line program of
    identities.compile_identity, which check_identity also runs, in full,
    on every square the search emits.  Divisions are not defined on a
    partial table, so an identity with \\ or / raises ValueError.  An
    instance is an assignment of the identity's variables, run as the
    program over its own registers.  It waits on a watch list for the
    first empty cell its products read, keeping the registers computed so
    far and the index of the product it waits on; when that cell is
    filled it resumes there.  Evaluation may leave the lhs's last product
    open, as a hole, and go on to the rhs (a resume past it reads that
    product again); an instance with two empty cells waits on the
    smaller.  With one side defined and the other lacking only its last
    product, whose operands are known, that product's cell is forced: the
    check pins it by narrowing allowed, the value masks the backtracker
    reads as it reaches each cell, to the defined side's value, and the
    instance is settled.  A value is rejected when an instance's sides
    differ, or when a pin's value is already gone from the cell's mask or
    sits in a filled cell of its row or column.

    Cells fill in row-major order, so an instance only ever moves to a
    later cell, and the check is called at pos only once every later cell
    is empty again.  So it undoes lazily: it first drops its own record of
    the cells from pos on (the flat table, the watch-list appends and the
    pinned masks, through trails marked per fill), then wakes pos's
    watchers.  A kept register prefix cannot go stale: the entry that
    holds it is popped as soon as any cell it read is undone.  The
    backtracker takes a given first row as it is, so its cells are checked
    against their masks here.
    """
    program, lhs, rhs = compile_identity(identity)
    if any(op for op, _, _ in program):
        raise ValueError(f"a full scan prunes with multiplication only, not {pretty(identity)}")
    products = [(a, b) for _, a, b in program]  # the (left, right) registers
    k, count = len(identity.variables), len(products)
    last = lhs - k  # the lhs's last product; negative if the lhs is a variable
    size = n * n
    table = [-1] * size  # the filled cells, row-major; -1 is empty
    watch = [[] for _ in range(size)]
    trail, pins = [], []  # the cell of each watch append; each pinned (cell, old mask)
    marks, pin_marks = [0] * size, [0] * size  # trail lengths per fill
    filled = 0  # cells 0..filled-1 are in table

    def pin(cell, v) -> bool:
        """Force empty cell to v; False if v is excluded there."""
        bit, mask = 1 << v, allowed[cell]
        if not mask & bit:
            return False
        if mask != bit:
            pins.append((cell, mask))
            allowed[cell] = bit
        col = cell % n
        return v not in table[cell - col : cell] and v not in table[col:cell:n]

    def wake(regs, i) -> bool:
        """Resume an instance at product i to wait, pin or compare; False if it fails."""
        hole = -1
        if i > last >= 0:  # read the lhs's last product again: it may be open
            a, b = products[last]
            cell = regs[a] * n + regs[b]
            regs[lhs] = table[cell]
            if regs[lhs] < 0:
                hole = cell
        while i < count:
            a, b = products[i]
            cell = regs[a] * n + regs[b]
            v = table[cell]
            if v >= 0:
                regs[k + i] = v
            elif i == last:  # a hole: the rhs reads no lhs register
                hole = cell
                regs[lhs] = -1
            elif i == count - 1 and hole < 0:  # the lhs is defined
                return pin(cell, regs[lhs])
            else:
                if 0 <= hole < cell:
                    cell = hole
                watch[cell].append((regs, i))
                trail.append(cell)
                return True
            i += 1
        return pin(hole, regs[rhs]) if hole >= 0 else regs[lhs] == regs[rhs]

    for a in itertools.product(range(n), repeat=k):
        regs = list(a) + [0] * count
        if not wake(regs, 0):  # fails on an empty table: reject cell 0
            watch[0].append((regs, 0))

    def check(grid, pos) -> bool:
        nonlocal filled
        if pos < filled:
            while len(trail) > marks[pos]:
                watch[trail.pop()].pop()
            while len(pins) > pin_marks[pos]:
                cell, mask = pins.pop()
                allowed[cell] = mask
            table[pos:filled] = [-1] * (filled - pos)
        v = table[pos] = grid[pos // n][pos % n]
        filled = pos + 1
        marks[pos], pin_marks[pos] = len(trail), len(pins)
        if not allowed[pos] >> v & 1:
            return False
        for regs, i in watch[pos]:
            if not wake(regs, i):
                return False
        return True

    return check


def _run_unit(args) -> tuple:
    """Search one work unit, a first-row orbit, at its representative.

    Returns the orbit, the representative's counts n1 and n1_loop (empty
    when it has no satisfier) and its counterexamples, in the enumerator's
    lexicographic order.  Only the identity satisfiers reach the tally,
    and no unit keeps a loop count, since the scan takes it by theorem.
    """
    identity, n, orbit = args
    rep, allowed = orbit[0][0], [(1 << n) - 1] * (n * n)
    cell_check = _cell_check(identity, n, allowed)
    counts, counterexamples = _tally(identity, _backtrack(n, rep, None, allowed, cell_check))
    counts = {"n1": counts["n1"], "n1_loop": counts["n1_loop"]} if counts else {}
    return orbit, counts, counterexamples


def _per_row(orbits, completed):
    """Yield each first row, in lexicographic order, with its counterexamples.

    They are its representative's relabelled into it, in the enumerator's order.
    """
    members = sorted((row, sigma, orbit[0][0]) for orbit in orbits for row, sigma in orbit)
    for row, sigma, rep in members:
        squares, relabelled = completed[_row_key(rep)]["counterexamples"], {}
        yield row, sorted(conjugate(square, sigma, relabelled) for square in squares)


def _row_key(first_row) -> str:
    return ",".join(str(v) for v in first_row)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _counts(entry) -> dict:
    return {k: v for k, v in entry.items() if k != "counterexamples"}


def _load_checkpoint(
    path: str | None, header: dict, orbits: list, row_total: int, loops: int, identity
) -> tuple[dict, bool]:
    """The completed entries, one per first row, of a checkpoint for this scan.

    A checkpoint of another scan is ignored; a malformed one raises
    ValueError naming the file.  Every key must be a first row of the
    order, and every entry needs a total of row_total, other counts that
    are ints from 0 to row_total, and counterexamples in strictly
    increasing order.  Each counterexample must be a Latin square
    (cayley.validate_cayley) with the entry's first row, and the tally
    must keep it: it satisfies identity and is not a loop.  A row holds
    its representative's counts, and n1 is n1_loop plus the
    counterexamples in the representative and in any row that lists its
    own, as earlier versions did; those lists are then dropped, and the
    second value returned is True.  An entry with n1 but no n1_loop, as
    earlier modular scans wrote, lists none, and a loop scan refuses it.
    The n1_loop add up to at most loops.  So the merge and the dump never
    see a bad value, and a resumed square passes the test that a searched
    one does.
    """
    if not (path and os.path.exists(path)):
        return {}, False
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"checkpoint {path} does not hold a JSON object")
    if any(data.get(k) != v for k, v in header.items()):
        return {}, False
    completed = data.get("completed", {})
    if not isinstance(completed, dict) or not all(
        isinstance(entry, dict) and {"total", "counterexamples"} <= entry.keys()
        for entry in completed.values()
    ):
        raise ValueError(
            f"checkpoint {path}: every completed entry needs a total and counterexamples"
        )
    n = header["order"]
    reps = {_row_key(row): _row_key(orbit[0][0]) for orbit in orbits for row, _ in orbit}
    if not completed.keys() <= reps.keys():
        raise ValueError(f"checkpoint {path}: every key must be a first row of order {n}")
    dropped = False
    for key, entry in completed.items():
        counts = [v for k, v in entry.items() if k != "counterexamples"]
        if not all(_is_int(v) and 0 <= v <= row_total for v in counts):
            raise ValueError(f"checkpoint {path}: every count must be an int in 0..{row_total}")
        if entry["total"] != row_total:
            raise ValueError(f"checkpoint {path}: every first row has {row_total} squares")
        squares = entry["counterexamples"]
        if not isinstance(squares, list):
            raise ValueError(f"checkpoint {path}: counterexamples must be a list")
        try:
            tables = [validate_cayley(square).table for square in squares]
        except (CayleyError, TypeError) as exc:
            raise ValueError(f"checkpoint {path}: a counterexample is no Latin square: {exc}")
        if any(_row_key(table[0]) != key for table in tables):
            raise ValueError(f"checkpoint {path}: a counterexample under {key} has another row")
        if any(a >= b for a, b in zip(tables, tables[1:])):
            raise ValueError(f"checkpoint {path}: counterexamples must be strictly increasing")
        if _tally(identity, tables)[1] != tables:
            raise ValueError(
                f"checkpoint {path}: every counterexample must satisfy "
                f"{header['identity']} without being a loop"
            )
        if _counts(entry) != _counts(completed.get(reps[key], entry)):
            raise ValueError(f"checkpoint {path}: {key} holds other counts than {reps[key]}")
        n1 = entry.get("n1", 0)
        if (key == reps[key] or squares) and n1 != entry.get("n1_loop", n1) + len(squares):
            raise ValueError(f"checkpoint {path}: n1 must be n1_loop plus the counterexamples")
        if key != reps[key] and squares:
            entry["counterexamples"], dropped = [], True
    if header["kind"] == "kunen" and any(
        e.get("n1") and "n1_loop" not in e for e in completed.values()
    ):
        raise ValueError(f"checkpoint {path}: a loop scan needs n1_loop wherever n1 is")
    if sum(entry.get("n1_loop", 0) for entry in completed.values()) > loops:
        raise ValueError(f"checkpoint {path}: n1_loop adds up to more than the {loops} loops")
    return completed, dropped


def _write_checkpoint(path: str, header: dict, completed: dict):
    # write-then-rename, so an interrupted write never leaves a torn file;
    # rows sorted (one digit per point, so as strings), so the bytes do not
    # depend on which orbit finished first
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps({**header, "completed": dict(sorted(completed.items()))}))
    os.replace(tmp, path)


class Pool:
    """Run units on this process and on processes - 1 child processes.

    The part of multiprocessing.Pool that _scan uses.  Each worker claims
    the next unit from a shared counter, so units start in order.  A child
    sends each result through its own pipe at once; this process yields
    those waiting between its own units, then the rest.  A child's
    exception is raised here, and a child that exits nonzero (killed for
    lack of memory, say) raises RuntimeError instead of leaving its unit
    waited for.  Leaving the with block terminates and joins every child.
    They are daemon Processes under the default start method (a fork on
    Linux, safe as the runner starts no thread); only imap_unordered
    imports multiprocessing.
    """

    def __init__(self, processes: int):
        self.processes, self._readers = processes, {}  # each running child by its pipe

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for reader, child in self._readers.items():
            child.terminate()
            child.join()
            reader.close()

    def imap_unordered(self, fn, items):
        import multiprocessing as mp

        items, claimed = list(items), mp.Value("i", 0)
        for _ in range(self.processes - 1):
            reader, writer = mp.Pipe(duplex=False)
            child = mp.Process(target=_work, args=(fn, items, claimed, writer), daemon=True)
            child.start()
            self._readers[reader] = child
            writer.close()
        while (i := _claim(claimed, len(items))) is not None:
            yield fn(items[i])
            yield from self._received(0)
        yield from self._received(None)

    def _received(self, timeout):
        """Yield what the children have sent, waiting up to timeout (None: until all exit)."""
        from multiprocessing.connection import wait

        while self._readers and (ready := wait(list(self._readers), timeout)):
            for reader in ready:
                try:
                    failed, value = reader.recv()
                except EOFError:  # the child has exited
                    child = self._readers.pop(reader)
                    reader.close()
                    child.join()
                    if child.exitcode:
                        raise RuntimeError(f"a worker exited with code {child.exitcode}") from None
                    continue
                if failed:
                    raise value
                yield value


def _claim(claimed, count: int) -> int | None:
    """The index of the next unclaimed item, or None once all are claimed."""
    with claimed.get_lock():
        i = claimed.value
        claimed.value = i + 1
    return i if i < count else None


def _work(fn, items, claimed, writer):
    """A child of Pool: run the items it claims, sending each result or the exception."""
    try:
        while (i := _claim(claimed, len(items))) is not None:
            writer.send((False, fn(items[i])))
    except Exception as exc:
        writer.send((True, exc))


def _scan(
    n: int,
    kind: str,
    identity,
    *,
    sample: int | None = None,
    seed: int | None = None,
    allow_n6: bool = False,
    jobs: int = 1,
    checkpoint: str | None = None,
) -> tuple:
    """Tally the squares; return counts and an iterable of counterexamples.

    sample=K draws K seeded squares (seed None means 0) and tallies each
    directly; sample=None scans every square.  A request that a scan
    would ignore is refused with ValueError: a seed on a full scan,
    allow_n6 (which lifts only the full-scan order cap) on a sample, and
    a checkpoint or jobs > 1 on a sample, which is one unit of work.  A
    checkpoint in a directory that does not exist is refused the same way,
    before any unit runs.
    A full scan runs one work unit per first-row orbit, records each
    finished unit's rows to the checkpoint, labelled by kind, at once, and
    leaves a unit pending while any of its rows is missing.  A checkpoint
    whose other rows list squares, as earlier versions wrote, is written
    back at once in the current layout, even with no unit pending.  A full
    scan sets the loop count by the theorem of the module docstring after
    the merge.
    """
    if sample is None and seed is not None:
        raise ValueError("seed applies only to a sample scan")
    if sample is not None and allow_n6:
        raise ValueError("allow_n6 applies only to a full scan")
    if n < 1:
        raise ValueError("order must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if sample is not None:
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        if checkpoint is not None or jobs > 1:
            raise ValueError(
                "a sample scan is a single unit of work: it takes neither a "
                "checkpoint nor more than one job"
            )
        squares = sample_latin_squares(n, sample, seed or 0)
        counts, counterexamples = _tally(identity, squares)
        counts["total"] = len(squares)
        return counts, counterexamples
    if n > FULL_ENUMERATION_LIMIT:
        raise OrderTooLarge(n, FULL_ENUMERATION_LIMIT)
    if n > FULL_SCAN_DEFAULT_LIMIT and not allow_n6:
        raise OrderTooLarge(n, FULL_SCAN_DEFAULT_LIMIT)
    if checkpoint is not None and not os.path.isdir(os.path.dirname(checkpoint) or "."):
        raise ValueError(f"checkpoint {checkpoint}: its directory does not exist")
    row_total = count_latin_squares_memoized(n) // math.factorial(n)

    header = {"order": n, "identity": pretty(identity), "kind": kind}
    loops = n * row_total // math.factorial(n - 1)
    orbits = first_row_orbits(n)
    completed, dropped = _load_checkpoint(checkpoint, header, orbits, row_total, loops, identity)
    if dropped:  # once, so that no later resume checks the dropped squares again
        _write_checkpoint(checkpoint, header, completed)
    pending = [
        (identity, n, orbit)
        for orbit in orbits
        if any(_row_key(row) not in completed for row, _ in orbit)
    ]

    def record(finished):
        for orbit, counts, squares in finished:
            for row, _ in orbit:
                completed[_row_key(row)] = {"total": row_total, **counts, "counterexamples": []}
            completed[_row_key(orbit[0][0])]["counterexamples"] = squares
            if checkpoint is not None:
                _write_checkpoint(checkpoint, header, completed)

    workers = min(jobs, len(pending))
    if workers > 1:  # one unit runs serially: a pool would idle
        with Pool(processes=workers) as pool:
            record(pool.imap_unordered(_run_unit, pending))
    else:
        record(map(_run_unit, pending))

    counts = Counter()
    for entry in completed.values():
        counts.update(_counts(entry))
    # this overrides the loop counts of entries that earlier versions wrote
    counts["loop"] = loops
    return counts, (square for _, squares in _per_row(orbits, completed) for square in squares)


def _dump_counterexamples(squares, order: int, directory: str | None, identity_name: str):
    paths = []
    directory = directory or "."
    os.makedirs(directory, exist_ok=True)
    for i, square in enumerate(squares):
        path = os.path.join(
            directory, f"counterexample_{identity_name}_order{order}_{i}.tbl"
        )
        q = FiniteQuasigroup(square)
        comment = (
            f"satisfies builtin identity {identity_name} but has no "
            "two-sided identity element"
        )
        with open(path, "w") as fh:
            fh.write(format_table_text(q, comment=comment))
        paths.append(path)
    return paths


def _scan_report(kind: str, n: int, identity_name: str, counterexample_dir=None, **scan) -> dict:
    """Run the scan and return the kind's report document; only a loop scan dumps.

    scan holds _scan's keyword arguments.  The keys come in the order
    --json writes them: kind, the shared fields, elapsed, the kind's own
    tallies, sampling_note.  mode is "sample" exactly when sample is
    given, and a sample given no seed reports seed 0.
    """
    start = time.perf_counter()
    identity = builtin_identity(identity_name)
    counts, counterexamples = _scan(n, kind, identity, **scan)
    n1, n1_loop, loops = counts["n1"], counts["n1_loop"], counts["loop"]
    if kind == "modular":
        own = {"trivial_cocycle_count": n1, "all_trivial": True, "dimension_one_count": n1}
    else:
        own = {
            "n1_loop_count": n1_loop,
            "loop_count": loops,
            "loops_failing_n1": loops - n1_loop,
            "kunen_holds": n1 == n1_loop,
            "counterexample_files": [],
        }
        if n1 != n1_loop:  # each satisfier not a loop is listed
            own["counterexample_files"] = _dump_counterexamples(
                counterexamples, n, counterexample_dir, identity_name
            )
    sampled = scan["sample"] is not None
    return {
        "kind": f"{kind}-scan",
        "order": n,
        "mode": "sample" if sampled else "full",
        "total_squares": counts["total"],
        "n1_count": n1,
        "identity_name": identity_name,
        "jobs": scan["jobs"],
        "sample_size": scan["sample"],
        "seed": (scan["seed"] or 0) if sampled else None,
        "elapsed": time.perf_counter() - start,  # after the dump, which it times too
        **own,
        "sampling_note": SAMPLING_NOTE if sampled else None,
    }


def kunen_scan(
    n: int,
    *,
    sample: int | None = None,
    seed: int | None = None,
    allow_n6: bool = False,
    jobs: int = 1,
    checkpoint: str | None = None,
    identity_name: str = "N1",
    counterexample_dir: str | None = None,
) -> dict:
    """Scan all (or sampled) order-n Latin squares; return the kunen-scan report document.

    The document is the JSON object that kunen-scan --json writes
    (reports.validate_report checks it).

    With sample=None the scan covers every square (n <= 5 unless
    allow_n6; n = 6 is ~8.1e8 squares) by the pruned search of the module
    docstring.  sample=K (K >= 1) draws K squares seeded by seed, 0 when
    seed is None.  What a scan would ignore raises ValueError: seed on a
    full scan, and allow_n6, jobs > 1 or a checkpoint on a sample; so
    does a checkpoint whose directory does not exist.  identity_name
    picks the identity from the builtin catalog, so the scan can be
    repeated with e.g. the classical left Moufang identity.
    """
    return _scan_report(
        "kunen", n, identity_name, counterexample_dir, sample=sample, seed=seed,
        allow_n6=allow_n6, jobs=jobs, checkpoint=checkpoint,
    )


def modular_scan(
    n: int,
    *,
    sample: int | None = None,
    seed: int | None = None,
    allow_n6: bool = False,
    jobs: int = 1,
    checkpoint: str | None = None,
    identity_name: str = "N1",
) -> dict:
    """Tally the trivial cocycles of each satisfier; return the modular-scan report document.

    The document is the JSON object that kunen-scan --modular --json
    writes (reports.validate_report checks it).

    Every Latin square has trivial cocycles and a one-dimensional
    invariant measure space (measures.solve_quasi_invariant), the finite
    instance of cocycle collapse, so the scan is kunen_scan's, and each
    satisfier counts in all three tallies.  sample, seed, allow_n6, jobs
    and checkpoint work, and are refused, as in kunen_scan.
    """
    return _scan_report(
        "modular", n, identity_name, sample=sample, seed=seed, allow_n6=allow_n6,
        jobs=jobs, checkpoint=checkpoint,
    )
