"""Desk-scale laboratory for finite quasigroups and Haar-type measures.

Modules:
  perm        permutations in image form, operator composition, orbits
  cayley      validated Cayley tables, translations, divisions, loops
  identities  term identities, exhaustive checking, operator (N1) form
  permgroup   Schreier-Sims groups: LMlt, RMlt, Mlt
  measures    pushforwards, quasi-invariant measures, cocycle relations
  characters  multiplicative characters in log-coordinates
  latin       Latin square enumeration, memoized counting, sampling
  kunen       exhaustive/sampled scans: identity satisfaction vs loops
  axb         numeric Haar verification on the ax+b group
  reports     JSON report schemas
  cli         command-line front end
"""

from .cayley import (
    CayleyError,
    ColumnDuplicate,
    FiniteQuasigroup,
    OutOfRange,
    RowDuplicate,
    TableFormatError,
    cyclic_group,
    format_table_text,
    parse_table_text,
    subtraction_mod,
    validate_cayley,
)
from .perm import DegreeMismatch, Perm

__version__ = "0.1.0"

__all__ = [
    "CayleyError",
    "ColumnDuplicate",
    "DegreeMismatch",
    "FiniteQuasigroup",
    "OutOfRange",
    "Perm",
    "RowDuplicate",
    "TableFormatError",
    "cyclic_group",
    "format_table_text",
    "parse_table_text",
    "subtraction_mod",
    "validate_cayley",
    "__version__",
]
