"""End-to-end command-line behavior: exit codes, JSON reports, machine output.

Exit code contract: 0 = request succeeded and the checked property holds,
1 = a checked property fails (structured JSON on stdout), 2 = usage, file,
or format errors (message on stderr).
"""

import ast
import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import quasilab
from quasilab import cli
from quasilab.cli import main
from quasilab.identities import builtin_identity, pretty
from quasilab.kunen import kunen_scan, modular_scan
from quasilab.reports import validate_report

Z3_TEXT = "3\n0 1 2\n1 2 0\n2 0 1\n"
SUB3_TEXT = "# subtraction mod 3\n3\n0 2 1\n1 0 2\n2 1 0\n"
BAD_TEXT = "2\n0 0\n1 1\n"
LABEL_TEXT = "2\ne a\na e\n"


@pytest.fixture
def tables(tmp_path):
    paths = {}
    for name, text in [
        ("z3", Z3_TEXT),
        ("sub3", SUB3_TEXT),
        ("bad", BAD_TEXT),
        ("labels", LABEL_TEXT),
    ]:
        p = tmp_path / f"{name}.tbl"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def _last_json_line(output: str):
    lines = [line for line in output.strip().splitlines() if line]
    return json.loads(lines[-1])


def _load_report(path):
    with open(path) as fh:
        doc = json.load(fh)
    validate_report(doc)
    return doc


def test_validate_good_table(tables, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert main(["validate", "--table", tables["z3"], "--json", out]) == 0
    stdout = capsys.readouterr().out
    assert "valid quasigroup of order 3" in stdout
    assert "loop with identity 0" in stdout
    doc = _load_report(out)
    assert doc["valid"] and doc["is_loop"] and doc["identity_element"] == 0


def test_validate_labels(tables, tmp_path, capsys):
    out = str(tmp_path / "labels.json")
    assert main(["validate", "--table", tables["labels"], "--json", out]) == 0
    assert "identity e" in capsys.readouterr().out
    assert _load_report(out)["labels"] == ["e", "a"]


def test_validate_latin_violation_exits_1(tables, capsys):
    assert main(["validate", "--table", tables["bad"]]) == 1
    failure = _last_json_line(capsys.readouterr().out)
    assert failure["reason"] == "row-duplicate"
    assert failure["row"] == 0


def test_validate_column_duplicate_names_the_column(tmp_path, capsys):
    p = tmp_path / "columns.tbl"
    p.write_text("2\n0 1\n0 1\n")  # every row is a permutation; column 0 is not
    out = str(tmp_path / "columns.json")
    assert main(["validate", "--table", str(p), "--json", out]) == 1
    failure = {"reason": "column-duplicate", "col": 0, "value": 0}
    assert _last_json_line(capsys.readouterr().out) == failure
    assert _load_report(out) == {"kind": "validate", "valid": False, "failure": failure}


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", "--table", str(tmp_path / "nope.tbl")]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_format_error(tmp_path, capsys):
    p = tmp_path / "short.tbl"
    p.write_text("3\n0 1 2\n")
    assert main(["validate", "--table", str(p)]) == 2
    assert "line" in capsys.readouterr().err


def test_check_identity_holds(tables, tmp_path, capsys):
    out = str(tmp_path / "n1.json")
    code = main(
        ["check-identity", "--table", tables["z3"], "--builtin", "N1", "--json", out]
    )
    assert code == 0
    assert "holds" in capsys.readouterr().out
    doc = _load_report(out)
    assert doc["holds"] and doc["counterexample"] is None


def test_check_identity_counterexample(tables, capsys):
    code = main(["check-identity", "--table", tables["sub3"], "--builtin", "N1"])
    assert code == 1
    stdout = capsys.readouterr().out
    assert "fails" in stdout
    assert _last_json_line(stdout) == {"x": 0, "y": 0, "z": 1}


def test_check_identity_quiet_still_prints_machine_output(tables, capsys):
    code = main(
        ["check-identity", "--table", tables["sub3"], "--builtin", "N1", "--quiet"]
    )
    assert code == 1
    stdout = capsys.readouterr().out
    assert _last_json_line(stdout) == {"x": 0, "y": 0, "z": 1}
    assert "fails" not in stdout


def test_check_identity_with_division_text(tables, capsys):
    code = main(
        ["check-identity", "--table", tables["sub3"], "--identity", "(x\\(x*y)) = y"]
    )
    assert code == 0
    capsys.readouterr()


def test_check_identity_errors(tables, capsys):
    assert main(["check-identity", "--table", tables["z3"], "--identity", "x*y = z"]) == 2
    assert "expected" in capsys.readouterr().err
    assert main(["check-identity", "--table", tables["z3"], "--builtin", "nope"]) == 2
    assert "no builtin identity" in capsys.readouterr().err
    code = main(
        ["check-identity", "--table", tables["z3"], "--builtin", "N1", "--cap", "2"]
    )
    assert code == 2
    assert "cap" in capsys.readouterr().err
    # a bad table is an input error here, not a property failure
    assert main(["check-identity", "--table", tables["bad"], "--builtin", "N1"]) == 2
    capsys.readouterr()


def test_translations(tables, tmp_path, capsys):
    out = str(tmp_path / "tr.json")
    assert main(["translations", "--table", tables["sub3"], "--json", out]) == 0
    stdout = capsys.readouterr().out
    assert "L_0" in stdout and "R_2" in stdout
    doc = _load_report(out)
    assert doc["left"][1] == [1, 0, 2]
    assert doc["right"][1] == [2, 0, 1]


def test_translations_single_element_one_side(tables, tmp_path, capsys):
    out = str(tmp_path / "tr1.json")
    code = main(
        [
            "translations",
            "--table",
            tables["sub3"],
            "--element",
            "1",
            "--side",
            "left",
            "--json",
            out,
        ]
    )
    assert code == 0
    capsys.readouterr()
    doc = _load_report(out)
    assert doc["left"] == [[1, 0, 2]]
    assert doc["right"] == []


def test_translations_element_out_of_range(tables, capsys):
    assert main(["translations", "--table", tables["z3"], "--element", "5"]) == 2
    assert "outside" in capsys.readouterr().err


def test_mlt(tables, tmp_path, capsys):
    out = str(tmp_path / "mlt.json")
    assert main(["mlt", "--table", tables["sub3"], "--json", out]) == 0
    capsys.readouterr()
    doc = _load_report(out)
    assert doc["order"] == 6
    assert doc["transitive"]
    assert len(doc["generators"]) == 6  # three left + three right translations
    assert main(["mlt", "--table", tables["sub3"], "--which", "right", "--json", out]) == 0
    capsys.readouterr()
    assert _load_report(out)["order"] == 3


def test_measure(tables, tmp_path, capsys):
    out = str(tmp_path / "measure.json")
    assert main(["measure", "--table", tables["sub3"], "--json", out]) == 0
    stdout = capsys.readouterr().out
    assert "dimension 1" in stdout
    doc = _load_report(out)
    assert doc["measure"] == ["1", "1", "1"]
    assert doc["left_cocycle"] == ["1", "1", "1"]
    assert doc["degenerate"]
    assert doc["explanation"]["reason"] == "mass-conservation"


def test_measure_document_on_z3(tables, tmp_path, capsys):
    out = str(tmp_path / "measure.json")
    assert main(["measure", "--table", tables["z3"], "--json", out]) == 0
    capsys.readouterr()
    ones = ["1", "1", "1"]
    assert _load_report(out) == {
        "kind": "measure",
        "order": 3,
        "measure": ones,
        "left_cocycle": ones,
        "right_cocycle": ones,
        "dimension": 1,
        "degenerate": True,
        "description": "positive multiples of the counting measure",
        "explanation": {
            "reason": "mass-conservation",
            "statement": (
                "a permutation pushforward preserves total mass, so "
                "(L_a)_*mu = j(a)*mu implies j(a)*mass(mu) = mass(mu); "
                "with 0 < mass(mu) < infinity this forces j(a) = 1 for "
                "every a, and likewise rho(a) = 1"
            ),
            "mass": "3",
            "forced_value": "1",
        },
    }


def test_measure_refuses_a_table_that_is_not_latin(tmp_path, capsys):
    # the solver answers by theorem for Latin tables only, so a repeated
    # column entry must stop the command before any measure is reported
    table = tmp_path / "column.tbl"
    table.write_text("3\n0 1 2\n1 2 0\n0 2 1\n")
    out = tmp_path / "measure.json"
    assert main(["measure", "--table", str(table), "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert "column 0 repeats value 0" in captured.err
    assert '"kind": "measure"' not in captured.out
    assert not out.exists()


def test_characters_on_a_loop(tables, tmp_path, capsys):
    out = str(tmp_path / "chars.json")
    assert main(["characters", "--table", tables["z3"], "--json", out]) == 0
    capsys.readouterr()
    doc = _load_report(out)
    assert doc["dimension"] == 0
    assert doc["positive_sum_oracle"] and doc["agreement"]
    assert doc["normalization"] is True
    assert doc["representation"]["well_defined"]


def test_characters_on_a_non_loop(tables, tmp_path, capsys):
    out = str(tmp_path / "chars2.json")
    assert main(["characters", "--table", tables["sub3"], "--json", out]) == 0
    stdout = capsys.readouterr().out
    assert "n/a (not a loop)" in stdout
    doc = _load_report(out)
    assert doc["normalization"] is None
    assert doc["representation"]["group_order"] == 6


def test_characters_cap_error(tables, capsys):
    assert main(["characters", "--table", tables["sub3"], "--cap", "3"]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_axb_verify(tmp_path, capsys):
    out = str(tmp_path / "axb.json")
    code = main(["axb", "verify", "--trials", "3", "--seed", "0", "--json", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "all tolerances met" in stdout
    doc = _load_report(out)
    assert doc["passed"] and doc["failures"] == []
    refused = tmp_path / "refused.json"
    for trials in ("0", "-1"):
        with pytest.raises(SystemExit) as info:
            main(["axb", "verify", "--trials", trials, "--json", str(refused)])
        assert info.value.code == 2
    # nan passes no comparison and inf every one; neither is a tolerance
    for tol in ("nan", "inf", "0", "-1", "-inf"):
        with pytest.raises(SystemExit) as info:
            main(["axb", "verify", "--tol", tol, "--json", str(refused)])
        assert info.value.code == 2
    assert not refused.exists()


def test_kunen_scan_full(tmp_path, capsys):
    out = str(tmp_path / "scan.json")
    assert main(["kunen-scan", "--order", "3", "--json", out]) == 0
    stdout = capsys.readouterr().out
    assert "identity-implies-loop holds: True" in stdout
    doc = _load_report(out)
    assert doc["total_squares"] == 12
    assert doc["n1_count"] == 3 and doc["n1_loop_count"] == 3


def test_kunen_scan_identity_override_failure_path(tmp_path, capsys):
    out = str(tmp_path / "comm.json")
    code = main(
        [
            "kunen-scan",
            "--order",
            "3",
            "--builtin",
            "commutativity",
            "--counterexample-dir",
            str(tmp_path / "dumps"),
            "--json",
            out,
        ]
    )
    assert code == 1
    payload = _last_json_line(capsys.readouterr().out)
    assert len(payload["counterexample_files"]) == 3
    doc = _load_report(out)
    assert not doc["kunen_holds"]
    assert doc["counterexample_files"] == payload["counterexample_files"]


# the key order of the scan reports' --json files
SCAN_KEYS = {
    "shared": ["order", "mode", "total_squares", "n1_count", "identity_name", "jobs",
               "sample_size", "seed"],
    "kunen": ["n1_loop_count", "loop_count", "loops_failing_n1", "kunen_holds",
              "counterexample_files"],
    "modular": ["trivial_cocycle_count", "all_trivial", "dimension_one_count"],
}


@pytest.mark.parametrize("modular", [False, True])
@pytest.mark.parametrize("sample", [[], ["--sample", "7", "--seed", "3"]])
@pytest.mark.parametrize("name", ["N1", "commutativity"])
def test_a_scan_returns_the_document_the_cli_writes(modular, sample, name, tmp_path, capsys):
    """The library's result is the --json report: valid, plain JSON, the same keys in order."""
    dumps = str(tmp_path / "dumps")
    scan = {"mode": "sample", "sample_size": 7, "seed": 3} if sample else {}
    if modular:
        doc = modular_scan(3, identity_name=name, **scan)
    else:
        doc = kunen_scan(3, identity_name=name, counterexample_dir=dumps, **scan)
    assert validate_report(doc) == ("modular-scan" if modular else "kunen-scan")
    assert json.loads(json.dumps(doc)) == doc
    own = SCAN_KEYS["modular" if modular else "kunen"]
    assert list(doc) == ["kind", *SCAN_KEYS["shared"], "elapsed", *own, "sampling_note"]
    out = tmp_path / "scan.json"
    argv = ["kunen-scan", "--order", "3", "--builtin", name, "--json", str(out), *sample]
    argv += ["--modular"] if modular else ["--counterexample-dir", dumps]
    assert main(argv) == (0 if doc.get("kunen_holds", True) else 1)
    capsys.readouterr()
    written = json.loads(out.read_text())
    assert list(written) == list(doc)
    assert {**written, "elapsed": None} == {**doc, "elapsed": None}


def test_kunen_scan_sample_and_limits(tmp_path, capsys):
    out = str(tmp_path / "sample.json")
    code = main(
        ["kunen-scan", "--order", "6", "--sample", "5", "--seed", "1", "--json", out]
    )
    assert code == 0
    capsys.readouterr()
    doc = _load_report(out)
    assert doc["mode"] == "sample" and doc["total_squares"] == 5
    assert doc["sampling_note"]

    assert main(["kunen-scan", "--order", "6"]) == 2
    assert "exceeds" in capsys.readouterr().err
    assert main(["kunen-scan", "--order", "7", "--allow-n6"]) == 2
    capsys.readouterr()
    # a sample is one unit of work: no checkpoint, no parallel workers
    ignored = str(tmp_path / "ignored.json")
    for extra in (["--checkpoint", ignored], ["--jobs", "2"]):
        assert main(["kunen-scan", "--order", "5", "--sample", "5"] + extra) == 2
        assert "sample scan" in capsys.readouterr().err
    assert not (tmp_path / "ignored.json").exists()
    # a sample size below 1 is refused, never replaced by a default
    for size in ("0", "-4"):
        for extra in ([], ["--modular"]):
            with pytest.raises(SystemExit) as info:
                main(["kunen-scan", "--order", "3", "--sample", size] + extra)
            assert info.value.code == 2
    capsys.readouterr()


def test_kunen_scan_refuses_flags_that_do_nothing(tmp_path, capsys):
    # a full scan has no seed, and a sample has no order cap to lift
    out = tmp_path / "refused.json"
    for kind in ([], ["--modular"]):
        for flag, extra in (
            ("--seed", ["--seed", "7"]),
            ("--seed", ["--seed", "0"]),
            ("--allow-n6", ["--sample", "3", "--allow-n6"]),
        ):
            argv = ["kunen-scan", "--order", "3", "--json", str(out)] + extra + kind
            assert main(argv) == 2, argv
            assert flag in capsys.readouterr().err
        assert not out.exists()

        # a sample without --seed runs with seed 0, and reports it
        argv = ["kunen-scan", "--order", "3", "--sample", "3", "--json", str(out)] + kind
        assert main(argv) == 0
        capsys.readouterr()
        assert _load_report(str(out))["seed"] == 0
        out.unlink()


def test_kunen_scan_modular(tmp_path, capsys):
    out = str(tmp_path / "mod.json")
    assert main(["kunen-scan", "--order", "3", "--modular", "--json", out]) == 0
    assert "trivial cocycles on all satisfiers: True" in capsys.readouterr().out
    doc = _load_report(out)
    assert doc["kind"] == "modular-scan"
    assert doc["all_trivial"]

    # --jobs and --checkpoint are honoured, with the serial counts
    serial = str(tmp_path / "serial4.json")
    parallel = str(tmp_path / "parallel4.json")
    checkpoint = tmp_path / "mod.ckpt"
    assert main(["kunen-scan", "--order", "4", "--modular", "--json", serial]) == 0
    argv = ["kunen-scan", "--order", "4", "--modular", "--jobs", "2",
            "--checkpoint", str(checkpoint), "--json", parallel]
    assert main(argv) == 0
    capsys.readouterr()
    counts = ["total_squares", "n1_count", "trivial_cocycle_count", "dimension_one_count"]
    assert [_load_report(parallel)[k] for k in counts] == [
        _load_report(serial)[k] for k in counts
    ]
    assert len(json.loads(checkpoint.read_text())["completed"]) == 24

    # the modular scan dumps no tables, so asking for them is refused
    dumps = tmp_path / "dumps"
    argv = ["kunen-scan", "--order", "3", "--modular", "--counterexample-dir", str(dumps)]
    assert main(argv) == 2
    assert "--counterexample-dir" in capsys.readouterr().err
    assert not dumps.exists()


def test_kunen_scan_malformed_checkpoint_is_a_usage_error(tmp_path, capsys):
    # exit 1 means the property failed, so a bad checkpoint must exit 2
    header = {"order": 3, "identity": "(((x*y)*z)*y) = (x*(y*(z*y)))", "kind": "kunen"}
    commutative = {**header, "identity": pretty(builtin_identity("commutativity"))}
    entry = {"total": 2, "counterexamples": []}

    def one(counts):
        return {**header, "completed": {"0,1,2": counts, "0,2,1": entry}}

    bad = {
        "list": [],
        "no_total": {**header, "completed": {"0,1,2": {"counterexamples": []}}},
        "no_counterexamples": {**header, "completed": {"0,1,2": {"total": 2}}},
        "entry_not_object": {**header, "completed": {"0,1,2": [], "0,2,1": entry}},
        "completed_not_object": {**header, "completed": []},
        "text_count": one({"total": "2", "counterexamples": []}),
        "true_count": one({"total": True, "counterexamples": []}),
        "negative_count": one({**entry, "n1": -1}),
        "counterexamples_not_list": one({"total": 2, "counterexamples": {}}),
        "short_table": {
            **commutative,
            "completed": {"0,1,2": {"total": 2, "n1": 1, "counterexamples": [[[1]]]}},
        },
        "entry_out_of_range": one({**entry, "counterexamples": [[[0, 1, 2]] * 2 + [[0, 1, 3]]]}),
        "boolean_entry": one({**entry, "counterexamples": [[[0, 1, 2]] * 2 + [[0, 1, True]]]}),
    }
    for name, doc in bad.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv = ["kunen-scan", "--order", "3", "--checkpoint", str(path)]
        if name == "short_table":
            argv += ["--builtin", "commutativity"]
        assert main(argv) == 2, name
        assert str(path) in capsys.readouterr().err
        assert json.loads(path.read_text()) == doc  # left as it was


def test_kunen_scan_tampered_checkpoint_is_a_usage_error(tmp_path, capsys):
    """Counts that disagree with the order or with each other are refused.

    A satisfier count of 999 would fail the property (exit 1), a row total
    of 5 would report 557 squares, and a key that is no first row of the
    order would be written back at every rewrite; all three files exit 2
    and dump nothing.
    """
    path = tmp_path / "scan4.json"
    kunen_scan(4, checkpoint=str(path))
    doc = json.loads(path.read_text())
    entry = doc["completed"]["0,1,2,3"]
    assert entry["n1"] == 4
    tampered = {
        "n1": {"0,1,2,3": {**entry, "n1": 999}},
        "total": {"0,1,2,3": {**entry, "total": 5}},
        "key": {"7,7,7,7": entry},
    }
    for name, change in tampered.items():
        bad = json.loads(json.dumps(doc))
        bad["completed"].update(change)
        path.write_text(json.dumps(bad))
        dumps = tmp_path / f"dumps_{name}"
        argv = ["kunen-scan", "--order", "4", "--checkpoint", str(path),
                "--counterexample-dir", str(dumps)]
        assert main(argv) == 2, name
        assert str(path) in capsys.readouterr().err
        assert not dumps.exists()
        with pytest.raises(ValueError, match=re.escape(str(path))):
            kunen_scan(4, checkpoint=str(path), counterexample_dir=str(dumps))
        assert not dumps.exists()
        assert json.loads(path.read_text()) == bad  # left as it was


Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
# the commutative non-loop with first row 0,2,1, as an order-3 scan lists it
COMMUTATIVE = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
# (name, identity, row, entry, words of the refusal): the entry replaces the
# row's entry of a real order-3 checkpoint; each entry's counts agree
RESUMED_FAULTS = [
    ("not_latin", "N1", "0,1,2",
     {"total": 2, "n1": 2, "n1_loop": 1, "counterexamples": [[[0, 0, 0]] * 3]}, "Latin"),
    ("wrong_first_row", "commutativity", "0,1,2",
     {"total": 2, "n1": 2, "n1_loop": 1, "counterexamples": [COMMUTATIVE]}, "another row"),
    ("fails_identity", "N1", "0,1,2",
     {"total": 2, "n1": 2, "n1_loop": 1,
      "counterexamples": [[[0, 1, 2], [2, 0, 1], [1, 2, 0]]]}, "without being a loop"),
    # JSON lists: a table of lists, not tuples, would hide Z3's identity
    ("a_loop", "N1", "0,1,2",
     {"total": 2, "n1": 2, "n1_loop": 1, "counterexamples": [Z3]}, "without being a loop"),
    ("duplicate", "commutativity", "0,2,1",
     {"total": 2, "n1": 2, "n1_loop": 0, "counterexamples": [COMMUTATIVE] * 2}, "increasing"),
    ("above_total", "N1", "0,1,2",
     {"total": 2, "n1": 10**30, "n1_loop": 10**30, "counterexamples": []}, "0..2"),
]


@pytest.mark.parametrize("modular", [False, True])
@pytest.mark.parametrize("name, builtin, row, entry, words", RESUMED_FAULTS)
def test_kunen_scan_refuses_a_resumed_square_the_tally_would_not_keep(
    name, builtin, row, entry, words, modular, tmp_path, monkeypatch, capsys
):
    """A resumed counterexample passes the checks of a searched one, or exits 2.

    The file is left as it was, and no table is dumped, not even into the
    current directory, where a scan without --counterexample-dir dumps.
    """
    monkeypatch.chdir(tmp_path)
    path = tmp_path / f"{name}.json"
    kind = ["--modular"] if modular else []
    argv = ["kunen-scan", "--order", "3", "--builtin", builtin, "--checkpoint", str(path)]
    assert main(argv + kind) in (0, 1)
    capsys.readouterr()
    doc = json.loads(path.read_text())
    doc["completed"][row] = {k: v for k, v in entry.items() if not (modular and k == "n1_loop")}
    path.write_text(json.dumps(doc))
    for table in tmp_path.rglob("*.tbl"):
        table.unlink()

    assert main(argv + kind) == 2
    err = capsys.readouterr().err
    assert str(path) in err and words in err, err
    assert json.loads(path.read_text()) == doc
    assert list(tmp_path.rglob("*.tbl")) == []


@pytest.mark.parametrize("modular", [False, True])
def test_kunen_scan_refuses_more_satisfying_loops_than_loops(
    modular, tmp_path, monkeypatch, capsys
):
    """Each of the 24 order-4 rows may hold n1 = n1_loop = 24, but 576 > 16 loops.

    Such a file used to exit 0 with loops_failing_n1 -560, a report that
    report-validate refuses.
    """
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "loops.json"
    argv = ["kunen-scan", "--order", "4", "--checkpoint", str(path)]
    argv += ["--modular"] if modular else []
    assert main(argv) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert len(doc["completed"]) == 24
    for row in doc["completed"]:
        doc["completed"][row] = {"total": 24, "n1": 24, "n1_loop": 24, "counterexamples": []}
    path.write_text(json.dumps(doc))

    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "16 loops" in err, err
    assert json.loads(path.read_text()) == doc
    assert list(tmp_path.rglob("*.tbl")) == []


def _order3_checkpoint(tmp_path, monkeypatch, capsys, argv) -> dict:
    """Run argv once to write its checkpoint, kept off the current directory; return it."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) in (0, 1)
    capsys.readouterr()
    for table in tmp_path.rglob("*.tbl"):
        table.unlink()
    return json.loads(Path(argv[argv.index("--checkpoint") + 1]).read_text())


@pytest.mark.parametrize("modular", [False, True])
def test_kunen_scan_refuses_an_orbit_whose_rows_disagree(modular, tmp_path, monkeypatch, capsys):
    """Every row of an orbit holds its representative's counts, or the file exits 2.

    At order 3 the rows 1,0,2 and 2,1,0 form one orbit, whose squares are
    stored under 1,0,2.  Claiming 2,1,0's satisfier is a loop keeps the
    entry's own sums right but contradicts the representative.
    """
    path = tmp_path / "orbit.json"
    argv = ["kunen-scan", "--order", "3", "--builtin", "commutativity",
            "--checkpoint", str(path)] + (["--modular"] if modular else [])
    doc = _order3_checkpoint(tmp_path, monkeypatch, capsys, argv)
    assert doc["completed"]["1,0,2"]["n1_loop"] == 0
    assert doc["completed"]["2,1,0"] == {"total": 2, "n1": 1, "n1_loop": 0, "counterexamples": []}
    doc["completed"]["2,1,0"]["n1_loop"] = 1
    path.write_text(json.dumps(doc))

    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "2,1,0 holds other counts than 1,0,2" in err, err
    assert json.loads(path.read_text()) == doc
    assert list(tmp_path.rglob("*.tbl")) == []


@pytest.mark.parametrize("modular", [False, True])
def test_a_satisfier_count_alone_resumes_only_a_modular_scan(
    modular, tmp_path, monkeypatch, capsys
):
    """An entry with n1 and no n1_loop is how earlier modular scans wrote a row.

    A modular scan resumes it; a loop scan, whose report needs n1_loop,
    exits 2 and leaves the file as it was.
    """
    path = tmp_path / "alone.json"
    argv = ["kunen-scan", "--order", "3", "--checkpoint", str(path)]
    argv += ["--modular"] if modular else []
    doc = _order3_checkpoint(tmp_path, monkeypatch, capsys, argv)
    del doc["completed"]["0,1,2"]["n1_loop"]
    path.write_text(json.dumps(doc))

    assert main(argv) == (0 if modular else 2)
    err = capsys.readouterr().err
    if not modular:
        assert str(path) in err and "n1_loop" in err, err
    assert json.loads(path.read_text()) == doc
    assert list(tmp_path.rglob("*.tbl")) == []


def test_python_dash_m_runs_the_cli(tmp_path):
    # a fresh interpreter that finds the package where this one did
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(quasilab.__file__))}
    run = partial(subprocess.run, capture_output=True, text=True, env=env, timeout=60)
    assert run([sys.executable, "-m", "quasilab", "--help"]).returncode == 0
    usage = run([sys.executable, "-m", "quasilab", "kunen-scan", "--order", "0"])
    assert usage.returncode == 2
    assert "order must be >= 1" in usage.stderr
    quiet = run([sys.executable, "-m", "quasilab", "kunen-scan", "--order", "3", "--quiet"])
    assert (quiet.returncode, quiet.stdout, quiet.stderr) == (0, "", "")
    short = tmp_path / "short.tbl"
    short.write_text("3\n0 1 2\n")
    bad = run([sys.executable, "-m", "quasilab", "validate", "--table", str(short)])
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr.startswith("error: ")


def test_report_validate_round_trip(tables, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    main(["validate", "--table", tables["z3"], "--json", out, "--quiet"])
    capsys.readouterr()
    assert main(["report-validate", out]) == 0
    assert "valid validate report" in capsys.readouterr().out


def test_report_validate_rejections(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"kind": "mystery"}')
    assert main(["report-validate", str(bogus)]) == 1
    assert _last_json_line(capsys.readouterr().out) == {
        "valid": False,
        "error": "no schema for report kind 'mystery'",
    }

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["report-validate", str(broken)]) == 2
    assert "not JSON" in capsys.readouterr().err

    missing_field = tmp_path / "missing.json"
    missing_field.write_text('{"kind": "validate"}')
    assert main(["report-validate", str(missing_field)]) == 1
    assert not _last_json_line(capsys.readouterr().out)["valid"]

    assert main(["report-validate", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def test_report_validate_takes_no_json(tables, tmp_path, capsys):
    # it writes no report, so --json is refused rather than ignored
    report = str(tmp_path / "report.json")
    assert main(["validate", "--table", tables["z3"], "--json", report, "--quiet"]) == 0
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as info:
        main(["report-validate", report, "--json", str(out)])
    assert info.value.code == 2
    assert "--json" in capsys.readouterr().err
    assert not out.exists()


# (name, argv, exit code): every subcommand on a passing input and, where
# it has one, a failing input; {name} fields are filled from the test's paths
CONTRACT_CASES = [
    ("validate", ["validate", "--table", "{z3}"], 0),
    ("validate-fails", ["validate", "--table", "{bad}"], 1),
    ("check-identity", ["check-identity", "--table", "{z3}", "--builtin", "N1"], 0),
    ("check-identity-fails", ["check-identity", "--table", "{sub3}", "--builtin", "N1"], 1),
    ("translations", ["translations", "--table", "{sub3}"], 0),
    ("mlt", ["mlt", "--table", "{sub3}"], 0),
    ("measure", ["measure", "--table", "{sub3}"], 0),
    ("characters", ["characters", "--table", "{sub3}"], 0),
    ("axb", ["axb", "verify", "--trials", "3"], 0),
    ("axb-fails", ["axb", "verify", "--trials", "3", "--tol", "1e-300"], 1),
    ("kunen-scan", ["kunen-scan", "--order", "3"], 0),
    ("kunen-scan-fails", ["kunen-scan", "--order", "3", "--builtin", "commutativity",
                          "--counterexample-dir", "{dumps}"], 1),
    ("modular-scan", ["kunen-scan", "--order", "3", "--modular"], 0),
    ("report-validate", ["report-validate", "{report}"], 0),
    ("report-validate-fails", ["report-validate", "{mystery}"], 1),
]


@pytest.mark.parametrize(
    "argv, code", [case[1:] for case in CONTRACT_CASES], ids=[case[0] for case in CONTRACT_CASES]
)
def test_every_subcommand_keeps_the_output_contract(argv, code, tables, tmp_path, capsys):
    """Run with and without --quiet and --json; report-validate takes no --json.

    Under --quiet, exit 0 prints nothing and exit 1 prints exactly one
    line, a JSON document, which is the last line without --quiet too.
    Every --json file is a valid report.
    """
    report, mystery = tmp_path / "valid.json", tmp_path / "mystery.json"
    assert main(["validate", "--table", tables["z3"], "--json", str(report), "--quiet"]) == 0
    mystery.write_text('{"kind": "mystery"}')
    paths = {**tables, "report": report, "mystery": mystery, "dumps": tmp_path / "dumps"}
    argv = [arg.format(**paths) for arg in argv]
    failures = []
    for quiet in (False, True):
        for json_out in (False, True) if argv[0] != "report-validate" else (False,):
            out = tmp_path / f"out_{quiet}_{json_out}.json"
            extra = ["--quiet"] * quiet + ["--json", str(out)] * json_out
            assert main(argv + extra) == code, extra
            lines = capsys.readouterr().out.splitlines()
            if quiet:
                assert len(lines) == code, lines
            else:
                assert len(lines) > code, lines  # the human lines come first
            if code:
                failures.append(json.loads(lines[-1]))
            if json_out:
                validate_report(json.loads(out.read_text()))
            assert out.exists() == json_out
    assert all(failure == failures[0] for failure in failures)


def _printing_functions(tree: ast.AST) -> list[str]:
    """Where a function other than main calls print or json.dump."""
    return [
        f"line {node.lineno}: {function.name} calls {ast.unparse(node.func)}"
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name != "main"
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("print", "json.dump")
    ]


def test_rules_catch_printing_functions():
    source = (
        "def main():\n"
        "    print(1)\n"
        "    json.dump({}, fh)\n"
        "def _cmd(args):\n"
        "    print(json.dumps({}))\n"
        "    json.dump({}, fh)\n"
    )
    assert _printing_functions(ast.parse(source)) == [
        "line 5: _cmd calls print",
        "line 6: _cmd calls json.dump",
    ]


def test_only_main_prints_or_writes_the_report():
    """The handlers return their output, and main alone keeps the output contract."""
    path = Path(cli.__file__)
    assert _printing_functions(ast.parse(path.read_text(), str(path))) == []


def test_quiet_suppresses_human_output(tables, capsys):
    assert main(["validate", "--table", tables["z3"], "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_missing_subcommand_is_a_usage_error(tables, capsys):
    # so are --jobs where no work is parallel, and a job count or cap below 1
    for argv in (
        [],
        ["validate", "--table", tables["z3"], "--jobs", "4"],
        ["kunen-scan", "--order", "3", "--jobs", "0"],
        ["kunen-scan", "--order", "3", "--jobs", "-1"],
        # caps below 1 are refused before any table is read or solved
        ["characters", "--table", tables["z3"], "--cap", "0"],
        ["characters", "--table", tables["z3"], "--cap", "-1"],
        ["check-identity", "--table", tables["z3"], "--builtin", "N1", "--cap", "0"],
        ["check-identity", "--table", tables["z3"], "--builtin", "N1", "--cap", "-1"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    capsys.readouterr()


def test_one_parser_serves_every_call_like_a_fresh_one(tables, tmp_path, monkeypatch, capsys):
    # main builds the parser once per process; a flag given to one call
    # must not carry into the next, so each call of the sequence is run
    # again on a freshly built parser and must give the same exit code,
    # output and report
    monkeypatch.chdir(tmp_path)
    calls = [
        ["validate", "--table", tables["z3"], "--quiet"],
        ["validate", "--table", tables["z3"]],
        ["mlt", "--table", tables["sub3"], "--which", "left", "--json", "mlt.json"],
        ["mlt", "--table", tables["sub3"], "--json", "mlt.json"],
        ["kunen-scan", "--order", "4", "--jobs", "2", "--checkpoint", "scan.ckpt",
         "--json", "scan.json"],
        ["kunen-scan", "--order", "4", "--json", "scan.json"],
        ["kunen-scan", "--order", "4", "--builtin", "commutativity", "--quiet",
         "--counterexample-dir", "dumps", "--json", "scan.json"],
        ["kunen-scan", "--order", "3", "--sample", "5", "--seed", "2", "--json", "scan.json"],
        ["kunen-scan", "--order", "3", "--sample", "5", "--json", "scan.json"],
        ["kunen-scan", "--order", "0"],
        ["translations", "--table", tables["z3"], "--element", "1", "--side", "left"],
        ["translations", "--table", tables["z3"]],
    ]

    def run(argv, fresh):
        if fresh:
            cli._build_parser.cache_clear()
        for leftover in ("scan.ckpt", "mlt.json", "scan.json"):
            if os.path.exists(leftover):
                os.remove(leftover)
        code = main(argv)
        out, err = capsys.readouterr()
        report = None
        for path in ("mlt.json", "scan.json"):
            if os.path.exists(path):
                report = _load_report(path)
                report.pop("elapsed", None)
        return code, re.sub(r"in [0-9.]+s", "in Ts", out), err, report

    once = [run(argv, fresh=False) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    assert [run(argv, fresh=True) for argv in calls] == once
    assert [code for code, *_ in once] == [0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0]
