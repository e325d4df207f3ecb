"""Finite quasigroups as validated Cayley tables.

A table passes validation iff it is a Latin square: every row and every
column is a permutation of {0, ..., n-1}.  Elements are 0-based indices;
optional labels are presentation-only.  Instances are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

from .perm import Perm, invert_images


class CayleyError(ValueError):
    """Base class for table validation failures."""


class RowDuplicate(CayleyError):
    def __init__(self, row: int, value: int):
        self.row = row
        self.value = value
        super().__init__(f"row {row} repeats value {value}")


class ColumnDuplicate(CayleyError):
    def __init__(self, col: int, value: int):
        self.col = col
        self.value = value
        super().__init__(f"column {col} repeats value {value}")


class OutOfRange(CayleyError):
    def __init__(self, entry, order: int):
        self.entry = entry
        self.order = order
        super().__init__(f"entry {entry!r} outside [0, {order})")


class TableFormatError(ValueError):
    """Malformed table file; carries 1-based line/column of the offense."""

    def __init__(self, message: str, line: int, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class FiniteQuasigroup:
    """An order-n quasigroup given by its Cayley table.

    Use validate_cayley() to construct; the constructor assumes the table
    has already been checked.
    """

    __slots__ = ("order", "table", "labels", "_left_div", "_right_div", "_lmlt")

    def __init__(self, table: tuple[tuple[int, ...], ...], labels=None):
        self.order = len(table)
        self.table = table
        self.labels = tuple(labels) if labels is not None else None
        self._left_div = None
        self._right_div = None
        self._lmlt = None

    def multiply(self, x: int, y: int) -> int:
        return self.table[x][y]

    def left_translation(self, a: int) -> Perm:
        """The bijection x -> a*x (row a of the table)."""
        return Perm(self.table[a])

    def right_translation(self, a: int) -> Perm:
        """The bijection x -> x*a (column a of the table)."""
        return Perm(self.columns[a])

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The columns of the table: column a is the right translation x -> x*a."""
        return tuple(zip(*self.table))

    def _division_tables(self):
        # a division is an inverted translation: left[a] inverts row a, and
        # the right table, indexed [b][a], transposes the inverted columns
        if self._left_div is None:
            self._left_div = tuple(map(invert_images, self.table))
            self._right_div = tuple(zip(*map(invert_images, self.columns)))
        return self._left_div, self._right_div

    def left_divide(self, a: int, b: int) -> int:
        """The unique x with a*x = b."""
        left, _ = self._division_tables()
        return left[a][b]

    def right_divide(self, a: int, b: int) -> int:
        """The unique y with y*a = b."""
        _, right = self._division_tables()
        return right[b][a]

    def find_identity(self):
        """Index of the two-sided identity, or None.

        Two two-sided identities coincide, so the first row/column hit is
        the only candidate.
        """
        identity = tuple(range(self.order))
        for e, row in enumerate(self.table):
            if row == identity and self.columns[e] == identity:
                return e
        return None

    def is_loop(self) -> bool:
        return self.find_identity() is not None

    def label_of(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteQuasigroup) and self.table == other.table
        )

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteQuasigroup(order={self.order})"


def validate_cayley(raw, labels=None) -> FiniteQuasigroup:
    """Validate a square integer array as a Latin square.

    Raises OutOfRange / RowDuplicate / ColumnDuplicate with the first
    offending position (row-major scan for range, then rows, then
    columns); only a Latin table has its labels checked.
    """
    n = len(raw)
    if n < 1:
        raise CayleyError("empty table")
    rows = []
    for i, row in enumerate(raw):
        row = tuple(row)
        if len(row) != n:
            raise CayleyError(f"row {i} has length {len(row)}, expected {n}")
        for entry in row:
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise OutOfRange(entry, n)
            if not 0 <= entry < n:
                raise OutOfRange(entry, n)
        rows.append(row)
    for duplicate, lines in ((RowDuplicate, rows), (ColumnDuplicate, zip(*rows))):
        for i, line in enumerate(lines):
            seen = set()
            for entry in line:
                if entry in seen:
                    raise duplicate(i, entry)
                seen.add(entry)
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != n or len(set(labels)) != n:
            raise CayleyError("labels must be n distinct strings")
    return FiniteQuasigroup(tuple(rows), labels)


def parse_table_text(text: str) -> FiniteQuasigroup:
    """Read the Cayley table text format.

    First significant line holds n, then n lines of n whitespace-separated
    tokens.  Tokens are either all integers in [0, n) or all labels; labels
    get indices by first appearance scanning row-major.  Lines starting
    with '#' are comments; blank lines are skipped.
    """
    lines = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise TableFormatError("empty table file", 1)
    head_lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise TableFormatError(f"expected order, got {head!r}", head_lineno, 1)
    if n < 1:
        raise TableFormatError(f"order must be >= 1, got {n}", head_lineno, 1)
    body = lines[1:]
    if len(body) != n:
        raise TableFormatError(
            f"expected {n} table rows, got {len(body)}",
            body[-1][0] if body else head_lineno,
        )
    token_rows = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise TableFormatError(
                f"expected {n} tokens, got {len(tokens)}", lineno
            )
        token_rows.append((lineno, tokens))

    def all_ints():
        try:
            for _, tokens in token_rows:
                for tok in tokens:
                    int(tok)
        except ValueError:
            return False
        return True

    labels = None
    if all_ints():
        raw = []
        for lineno, tokens in token_rows:
            row = []
            for col, tok in enumerate(tokens, start=1):
                value = int(tok)
                if not 0 <= value < n:
                    raise TableFormatError(
                        f"entry {value} outside [0, {n})", lineno, col
                    )
                row.append(value)
            raw.append(row)
    else:
        index = {}
        raw = []
        for lineno, tokens in token_rows:
            row = []
            for col, tok in enumerate(tokens, start=1):
                if tok not in index:
                    if len(index) == n:
                        raise TableFormatError(
                            f"more than {n} distinct labels ({tok!r})",
                            lineno,
                            col,
                        )
                    index[tok] = len(index)
                row.append(index[tok])
            raw.append(row)
        labels = sorted(index, key=index.get)
    # Latin-property violations propagate as CayleyError, distinct from
    # file-shape problems: callers treat them differently.
    return validate_cayley(raw, labels)


def format_table_text(q: FiniteQuasigroup, comment: str | None = None) -> str:
    """Inverse of parse_table_text (integer tokens; labels are dropped)."""
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    out.append(str(q.order))
    for row in q.table:
        out.append(" ".join(str(x) for x in row))
    return "\n".join(out) + "\n"


def cyclic_group(n: int) -> FiniteQuasigroup:
    """Addition mod n; the standard group example."""
    return validate_cayley([[(i + j) % n for j in range(n)] for i in range(n)])


def subtraction_mod(n: int) -> FiniteQuasigroup:
    """table[x][y] = (x - y) mod n; a quasigroup with no identity for n >= 3."""
    return validate_cayley([[(i - j) % n for j in range(n)] for i in range(n)])
