"""JSON report schemas and validation.

Every machine-readable document the CLI writes carries a "kind" field;
validate_report dispatches on it and checks the document against the
matching schema, so reports round-trip: anything the tool emits, the
tool can re-validate.

jsonschema loads on the first call of validate_report, not on import:
about 60 ms of start-up that only report-validate, among the commands,
needs.  The errors raised are jsonschema's own classes all the same.
"""

from __future__ import annotations

from functools import cache


class UnknownReportKind(ValueError):
    def __init__(self, kind):
        self.kind = kind
        super().__init__(f"no schema for report kind {kind!r}")


_RATIONAL = {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}
_RATIONAL_VECTOR = {"type": "array", "items": _RATIONAL}
_COUNT = {"type": "integer", "minimum": 0}
_TABLE = {
    "type": "array",
    "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
}


def _scan_schema(kind: str, required: list[str], **properties) -> dict:
    """A scan report's schema: the fields both scan kinds share, plus the kind's own."""
    return {
        "type": "object",
        "required": ["kind", "order", "mode", "total_squares", "n1_count", *required],
        "properties": {
            "kind": {"const": kind},
            "order": {"type": "integer", "minimum": 1},
            "mode": {"enum": ["full", "sample"]},
            "total_squares": _COUNT,
            "n1_count": _COUNT,
            "identity_name": {"type": "string"},
            "jobs": {"type": "integer", "minimum": 1},
            "sample_size": {"type": ["integer", "null"]},
            "seed": {"type": ["integer", "null"]},
            "elapsed": {"type": "number"},
            "sampling_note": {"type": ["string", "null"]},
            **properties,
        },
    }


SCHEMAS: dict[str, dict] = {
    "validate": {
        "type": "object",
        "required": ["kind", "valid"],
        "properties": {
            "kind": {"const": "validate"},
            "valid": {"type": "boolean"},
            "order": _COUNT,
            "is_loop": {"type": "boolean"},
            "identity_element": {"type": ["integer", "null"]},
            "labels": {
                "type": ["array", "null"],
                "items": {"type": "string"},
            },
            "failure": {"type": ["object", "null"]},
        },
    },
    "check-identity": {
        "type": "object",
        "required": ["kind", "identity", "holds"],
        "properties": {
            "kind": {"const": "check-identity"},
            "identity": {"type": "string"},
            "holds": {"type": "boolean"},
            "counterexample": {"type": ["object", "null"]},
            "lhs_value": {"type": ["integer", "null"]},
            "rhs_value": {"type": ["integer", "null"]},
        },
    },
    "translations": {
        "type": "object",
        "required": ["kind", "order", "left", "right"],
        "properties": {
            "kind": {"const": "translations"},
            "order": _COUNT,
            "element": {"type": ["integer", "null"]},
            "left": _TABLE,
            "right": _TABLE,
        },
    },
    "mlt": {
        "type": "object",
        "required": ["kind", "which", "degree", "order", "transitive", "generators"],
        "properties": {
            "kind": {"const": "mlt"},
            "which": {"enum": ["left", "right", "both"]},
            "degree": _COUNT,
            "order": _COUNT,
            "transitive": {"type": "boolean"},
            "generators": _TABLE,
            "base": {"type": "array", "items": {"type": "integer"}},
        },
    },
    "measure": {
        "type": "object",
        "required": [
            "kind",
            "order",
            "measure",
            "left_cocycle",
            "right_cocycle",
            "dimension",
            "degenerate",
        ],
        "properties": {
            "kind": {"const": "measure"},
            "order": _COUNT,
            "measure": _RATIONAL_VECTOR,
            "left_cocycle": _RATIONAL_VECTOR,
            "right_cocycle": _RATIONAL_VECTOR,
            "dimension": _COUNT,
            "degenerate": {"type": "boolean"},
            "description": {"type": "string"},
            "explanation": {"type": "object"},
        },
    },
    "characters": {
        "type": "object",
        "required": ["kind", "order", "dimension", "positive_sum_oracle", "agreement"],
        "properties": {
            "kind": {"const": "characters"},
            "order": _COUNT,
            "dimension": _COUNT,
            "character_log": _RATIONAL_VECTOR,
            "positive_sum_oracle": {"type": "boolean"},
            "agreement": {"type": "boolean"},
            "normalization": {"type": ["boolean", "null"]},
            "is_loop": {"type": "boolean"},
            "representation": {
                "type": "object",
                "required": ["well_defined", "group_order"],
                "properties": {
                    "well_defined": {"type": "boolean"},
                    "group_order": _COUNT,
                    "homomorphism": {"type": "boolean"},
                    "pairs_checked": _COUNT,
                    "conflict": {"type": ["array", "null"]},
                },
            },
            "element_cap": _COUNT,
        },
    },
    "axb-verify": {
        "type": "object",
        "required": ["kind", "seed", "trials", "max_errors", "passed"],
        "properties": {
            "kind": {"const": "axb-verify"},
            "seed": {"type": "integer"},
            "trials": _COUNT,
            "arithmetic_pairs": _COUNT,
            "jacobian_points": _COUNT,
            "jacobian_step": {"type": "number"},
            "quadrature_tolerance": {"type": "number"},
            "tolerance": {"type": "number"},
            "arithmetic_tolerance": {"type": "number"},
            "max_errors": {
                "type": "object",
                "additionalProperties": {"type": "number"},
            },
            "failures": {"type": "array", "items": {"type": "string"}},
            "passed": {"type": "boolean"},
            "elapsed": {"type": "number"},
        },
    },
    "kunen-scan": _scan_schema(
        "kunen-scan",
        ["n1_loop_count", "loop_count", "loops_failing_n1", "kunen_holds"],
        n1_loop_count=_COUNT,
        loop_count=_COUNT,
        loops_failing_n1=_COUNT,
        kunen_holds={"type": "boolean"},
        counterexample_files={"type": "array", "items": {"type": "string"}},
    ),
    "modular-scan": _scan_schema(
        "modular-scan",
        ["trivial_cocycle_count", "all_trivial"],
        trivial_cocycle_count=_COUNT,
        all_trivial={"type": "boolean"},
        dimension_one_count=_COUNT,
    ),
}


@cache
def _validator(kind: str):
    """kind's validator, built once; the schema is checked against its metaschema here.

    jsonschema.validate checks the schema on every call, which costs about
    fifty times as much as validating a report.
    """
    from jsonschema.validators import validator_for

    schema = SCHEMAS[kind]
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_report(doc: dict) -> str:
    """Validate a report document against its kind's schema.

    Returns the kind on success; raises UnknownReportKind or
    jsonschema.ValidationError on failure, the error jsonschema.validate
    would raise, or jsonschema.SchemaError if the kind's schema is bad.
    jsonschema is imported here, on the first call, so importing this
    module does not load it; the exception classes are the same.
    """
    from jsonschema import ValidationError
    from jsonschema.exceptions import best_match

    if not isinstance(doc, dict):
        raise ValidationError("report must be a JSON object")
    kind = doc.get("kind")
    if kind not in SCHEMAS:
        raise UnknownReportKind(kind)
    error = best_match(_validator(kind).iter_errors(doc))
    if error is not None:
        raise error
    return kind
