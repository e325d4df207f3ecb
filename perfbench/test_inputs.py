"""Tests of the benchmark's input generators and of its metric list.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench -q
"""

import itertools
import json
import os

import pytest

import inputs
import run
import tracing
from quasilab.cayley import validate_cayley
from quasilab.identities import builtin_identity, check_identity

SEEDS = [0, 1, 7]


def _is_isomorphism(perm, a, b) -> bool:
    n = len(a)
    return all(b[perm[x]][perm[y]] == perm[a[x][y]] for x in range(n) for y in range(n))


@pytest.mark.parametrize("name", sorted(inputs.GROUPS))
def test_group_tables_are_groups(name):
    table = inputs.GROUPS[name]
    validate_cayley(table)
    assert inputs.identity_element(table) is not None
    assert inputs.is_associative(table)


def test_group_facts():
    sizes = {name: len(t) for name, t in inputs.GROUPS.items()}
    assert sizes == {"Z4": 4, "Z5": 5, "Z6": 6, "Z7": 7, "Z8": 8, "Z2xZ2": 4,
                     "Z2xZ4": 8, "Z2^3": 8, "S3": 6, "D4": 8}
    centers = {name: inputs.center_size(t) for name, t in inputs.GROUPS.items()}
    assert centers["S3"] == 1 and centers["D4"] == 2 and centers["Z2xZ4"] == 8


@pytest.mark.parametrize("seed", SEEDS)
def test_loop_items_are_valid_isomorphic_copies(seed):
    items = inputs.loop_items(seed)
    assert len(items) == len(inputs.GROUPS) * inputs.GROUP_COPIES + 56
    sources = {name: table for name, table in inputs.GROUPS.items()}
    for item in items:
        validate_cayley(item.table)
        assert item.is_loop
        if "#" in item.name:
            source = sources[item.name.split("#")[0]]
            assert item.is_group
            assert any(_is_isomorphism(p, source, item.table)
                       for p in itertools.permutations(range(len(source))))


def test_relabel_is_an_isomorphism():
    table = inputs.GROUPS["D4"]
    perm = [3, 0, 7, 1, 6, 2, 5, 4]
    assert _is_isomorphism(perm, table, inputs.relabel(table, perm))


def test_reduced_loops_and_n1():
    loops = inputs.reduced_loops(5)
    assert len(loops) == 56
    n1 = builtin_identity("N1")
    # the fact the loops workload checks: N1 holds exactly on the groups
    for table in loops:
        q = validate_cayley(table)
        assert check_identity(q, n1).holds == inputs.is_associative(table)
    assert sum(inputs.is_associative(t) for t in loops) == 6


def test_labelled_copies_of_z5():
    assert inputs.labelled_copies(inputs.cyclic(5)) == 30


@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_items_are_latin_squares(seed):
    for item in inputs.corpus_items(seed, 10):
        q = validate_cayley(item.table)
        assert q.order == inputs.CORPUS_ORDER
        assert item.is_loop == (q.find_identity() is not None)


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_same_inputs(seed):
    assert inputs.loop_items(seed) == inputs.loop_items(seed)
    assert inputs.corpus_items(seed, 5) == inputs.corpus_items(seed, 5)
    assert inputs.bump_trials(seed, 3) == inputs.bump_trials(seed, 3)
    assert inputs.scan_probe_rows(seed) == inputs.scan_probe_rows(seed)
    assert inputs.loop_items(seed) != inputs.loop_items(seed + 1)


def test_metric_list_matches_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m.name: m.unit for m in tracing.PER_LAYER}
    per_layer.update({name: unit for name, unit, _ in tracing.DERIVED})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
