"""Report schema validation and rejection paths."""

import json

import jsonschema
import pytest

from quasilab.cli import main
from quasilab.reports import SCHEMAS, UnknownReportKind, validate_report


def test_every_schema_has_a_kind_constant():
    for kind, schema in SCHEMAS.items():
        assert schema["properties"]["kind"] == {"const": kind}
        assert "kind" in schema["required"]


def test_minimal_documents_validate():
    docs = [
        {"kind": "validate", "valid": True},
        {"kind": "check-identity", "identity": "(x*y) = (y*x)", "holds": False},
        {"kind": "translations", "order": 2, "left": [[0, 1]], "right": [[1, 0]]},
        {
            "kind": "mlt",
            "which": "both",
            "degree": 3,
            "order": 6,
            "transitive": True,
            "generators": [[1, 2, 0]],
        },
        {
            "kind": "measure",
            "order": 2,
            "measure": ["1", "1"],
            "left_cocycle": ["1", "1"],
            "right_cocycle": ["1", "1"],
            "dimension": 1,
            "degenerate": True,
        },
        {
            "kind": "characters",
            "order": 2,
            "dimension": 0,
            "positive_sum_oracle": True,
            "agreement": True,
        },
        {"kind": "axb-verify", "seed": 0, "trials": 1, "max_errors": {}, "passed": True},
    ]
    for doc in docs:
        assert validate_report(doc) == doc["kind"]


def test_rational_strings_are_checked():
    good = {
        "kind": "measure",
        "order": 1,
        "measure": ["3/2"],
        "left_cocycle": ["1"],
        "right_cocycle": ["-2/7"],
        "dimension": 1,
        "degenerate": True,
    }
    assert validate_report(good) == "measure"
    bad = dict(good, measure=["1.5"])  # floats are not exact rationals
    with pytest.raises(jsonschema.ValidationError):
        validate_report(bad)


def test_missing_required_field_is_rejected():
    with pytest.raises(jsonschema.ValidationError):
        validate_report({"kind": "validate"})
    with pytest.raises(jsonschema.ValidationError):
        validate_report(
            {"kind": "kunen-scan", "order": 3, "mode": "full", "total_squares": 12}
        )


def test_wrong_types_are_rejected():
    with pytest.raises(jsonschema.ValidationError):
        validate_report({"kind": "validate", "valid": "yes"})
    with pytest.raises(jsonschema.ValidationError):
        validate_report(
            {
                "kind": "mlt",
                "which": "middle",
                "degree": 3,
                "order": 6,
                "transitive": True,
                "generators": [],
            }
        )


def test_unknown_kind():
    with pytest.raises(UnknownReportKind) as info:
        validate_report({"kind": "mystery"})
    assert info.value.kind == "mystery"
    with pytest.raises(UnknownReportKind):
        validate_report({})
    with pytest.raises(jsonschema.ValidationError):
        validate_report(["not", "an", "object"])


def _undeclared(doc: dict, schema: dict, where: str = "") -> list[str]:
    """The keys of doc, and of its objects that schema describes, with no property."""
    properties = schema.get("properties", {})
    missing = [where + key for key in doc if key not in properties]
    for key, value in doc.items():
        if isinstance(value, dict) and "properties" in properties.get(key, {}):
            missing += _undeclared(value, properties[key], f"{where}{key}.")
    return missing


def test_every_emitted_key_is_a_schema_property(tmp_path, monkeypatch, capsys):
    """Every --json report of the CLI, both scan kinds in both modes."""
    monkeypatch.chdir(tmp_path)  # the commutativity scan dumps its tables here
    z3, bad = tmp_path / "z3.tbl", tmp_path / "bad.tbl"
    z3.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    bad.write_text("2\n0 0\n1 1\n")
    scan = ["kunen-scan", "--order", "3"]
    runs = [
        ["validate", "--table", str(z3)],
        ["validate", "--table", str(bad)],
        ["check-identity", "--table", str(z3), "--builtin", "N1"],
        ["check-identity", "--table", str(z3), "--builtin", "commutativity"],
        ["check-identity", "--table", str(z3), "--identity", "((x*y)*z) = (y*x)"],
        ["translations", "--table", str(z3)],
        ["mlt", "--table", str(z3)],
        ["measure", "--table", str(z3)],
        ["characters", "--table", str(z3)],
        ["axb", "verify", "--trials", "2"],
        scan,
        scan + ["--builtin", "commutativity"],
        scan + ["--sample", "4"],
        scan + ["--modular"],
        scan + ["--modular", "--sample", "4"],
    ]
    kinds = set()
    for i, argv in enumerate(runs):
        out = tmp_path / f"report{i}.json"
        assert main(argv + ["--json", str(out), "--quiet"]) in (0, 1), argv
        doc = json.loads(out.read_text())
        kinds.add(validate_report(doc))
        assert _undeclared(doc, SCHEMAS[doc["kind"]]) == [], argv
    capsys.readouterr()
    assert kinds == set(SCHEMAS)


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_every_schema_passes_its_metaschema(kind):
    schema = SCHEMAS[kind]
    jsonschema.validators.validator_for(schema).check_schema(schema)


INVALID = [
    {"kind": "validate"},
    {"kind": "validate", "valid": "yes", "order": -1},
    {"kind": "measure", "order": 1, "measure": ["1.5"], "left_cocycle": ["1"],
     "right_cocycle": ["x"], "dimension": 1, "degenerate": True},
    {"kind": "axb-verify", "seed": 0, "trials": 1, "max_errors": {"x": "big"}, "passed": True},
    {"kind": "characters", "order": 2, "dimension": 0, "positive_sum_oracle": True,
     "agreement": True, "representation": {"well_defined": True, "group_order": -3}},
    {"kind": "kunen-scan", "order": 0, "mode": "all", "total_squares": 12, "n1_count": 1},
    {"kind": "modular-scan", "order": 3, "mode": "full", "total_squares": 12,
     "n1_count": 3, "trivial_cocycle_count": 3, "all_trivial": True, "jobs": 0},
]


@pytest.mark.parametrize("doc", INVALID, ids=[doc["kind"] for doc in INVALID])
def test_a_cached_validator_raises_what_jsonschema_validate_raises(doc):
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(instance=doc, schema=SCHEMAS[doc["kind"]])
    for _ in range(2):  # building the validator, then reusing it
        with pytest.raises(jsonschema.ValidationError) as got:
            validate_report(doc)
        assert got.value.message == expected.value.message
        assert list(got.value.path) == list(expected.value.path)
        assert list(got.value.schema_path) == list(expected.value.schema_path)


def test_a_bad_schema_is_still_refused(monkeypatch):
    broken = {"type": "object", "required": "kind", "properties": {"kind": {"const": "broken"}}}
    monkeypatch.setitem(SCHEMAS, "broken", broken)
    for _ in range(2):
        with pytest.raises(jsonschema.SchemaError):
            validate_report({"kind": "broken"})
