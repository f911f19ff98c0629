"""Arithmetic over GF(2) and GF(2^8), and exact linear-system solving.

Sub-symbols live in one of these two characteristic-2 fields.  The default
is plain GF(2) (addition is XOR, multiplication is AND), which is all the
shipped constructions need; GF(2^8) with the reduction polynomial 0x11D is
kept as a fallback for block codes that have no binary realization.

The elimination code is shared by the block-code verifier and the streaming
decoder.  It keeps the system in reduced row echelon form at all times so
that an unknown is reported *determined* exactly when every satisfying
assignment gives it the same value.
"""

from __future__ import annotations

from dataclasses import dataclass


class InconsistentSystemError(ArithmeticError):
    """A linear system contradicts itself (0 = nonzero after reduction).

    ``rhs`` is the equation's reduced right-hand side, which is nonzero.
    Not a ``ValueError``: the decoders only ever solve equations read from
    burstfec's own encoded streams, so a contradiction there is a fault in
    the program, not invalid input.
    """

    def __init__(self, rhs: int, message: str = "contradictory equation"):
        super().__init__(message)
        self.rhs = rhs


def _gf256_tables() -> tuple[tuple[int, ...], tuple[int, ...], tuple[bytes, ...]]:
    """``exp``, ``log`` and ``scale`` of GF(2^8) under 0x11D.  x = 2 is
    primitive there, so ``exp`` is built by doubling, and each ``scale``
    table is the one before it translated by the doubling table."""
    times_2 = bytes((x << 1) ^ 0x11D if x & 0x80 else x << 1 for x in range(256))
    powers = [1]
    for _ in range(254):
        powers.append(times_2[powers[-1]])
    log = [0] * 256
    for i, x in enumerate(powers):
        log[x] = i
    scale = [bytes(range(256))]
    for _ in range(254):
        scale.append(scale[-1].translate(times_2))
    return tuple(powers + powers), tuple(log), tuple(scale)


_GF256_EXP, _GF256_LOG, _GF256_SCALE = _gf256_tables()


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^m) for ``order_exponent`` m = 1 (GF(2)) or m = 8 (GF(2^8) under
    the reduction polynomial 0x11D), so every element fits in a byte.

    GF(2^8) exposes its tables as read-only attributes, for inner loops that
    cannot afford a method call per coefficient:

    - ``exp``: the antilog table, ``exp[i]`` = 2^i, twice the group order
      long, so ``exp[log[a] + log[b]]`` is ``a*b`` and ``exp[255 - log[a]]``
      is ``1/a``, with no reduction;
    - ``log``: ``log[a]`` for nonzero ``a``.  ``log[0]`` is a placeholder
      with no meaning, so callers must test for zero themselves;
    - ``scale``: ``scale[l]`` for 0 <= l < 255 is the 256-byte table of
      x -> 2^l * x, so ``bytes.translate`` multiplies every byte of a string
      by 2^l at once.

    ``mul`` and ``inv`` are the reference these uses are tested against.
    """

    order_exponent: int = 1

    def __post_init__(self) -> None:
        m = self.order_exponent
        if m not in (1, 8):
            raise ValueError(f"order exponent must be 1 or 8, got {m}")
        if m == 8:
            object.__setattr__(self, "exp", _GF256_EXP)
            object.__setattr__(self, "log", _GF256_LOG)
            object.__setattr__(self, "scale", _GF256_SCALE)

    @property
    def size(self) -> int:
        return 1 << self.order_exponent

    def add(self, a: int, b: int) -> int:
        return a ^ b

    # Characteristic 2: subtraction coincides with addition.
    sub = add

    def mul(self, a: int, b: int) -> int:
        if self.order_exponent == 1:
            return a & b
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.order_exponent == 1:
            return 1
        return self.exp[self.size - 1 - self.log[a]]


def _scale_lanes(v: int, table: bytes) -> int:
    """``v`` with every byte lane multiplied by 2^l, ``table`` being
    ``FieldSpec.scale[l]``."""
    return int.from_bytes(v.to_bytes((v.bit_length() + 7) >> 3, "little").translate(table), "little")


GF2 = FieldSpec(1)
GF256 = FieldSpec(8)

# The fields by the name the text form and the CLI give them.
FIELDS = {"gf2": GF2, "gf256": GF256}


class IncrementalSolver:
    """Reduced-row-echelon elimination accepting equations one at a time.

    Unknowns are integer column indices.  After every insertion the system
    stays in RREF, so an unknown is uniquely determined exactly when its
    pivot row has singleton support.  ``add_equation`` returns the unknowns
    that became determined because of that equation.

    A pivot row changes only when an equation's new pivot column is
    eliminated from it, and a singleton row never holds another pivot's
    column, so the fresh singletons are found among the rows an equation
    touches plus its own new row; the other rows need no rescan.  For the
    same reason a singleton row never changes again, so the GF(2^8) path
    looks for touched rows only among the pivots whose rows are not yet
    singletons, kept in pivot order.

    GF(2) rows are stored as int bitmasks (column j <-> bit j); GF(2^8)
    rows are sparse coefficient dicts with the pivot normalized to 1.

    A right-hand side may pack a vector into one int: bit j is entry j on
    GF(2), where XOR already works entry-wise, and byte lane j on GF(2^8),
    whose products scale every lane at once through ``FieldSpec.scale``.
    Elimination is linear in the rhs, so with unit vectors as rhs it
    returns, in place of values, the combinations of the equations' rhs
    that give them.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self._binary = field.order_exponent == 1
        self._pivots: dict[int, tuple] = {}  # col -> (row, rhs)
        # GF(2^8): pivot columns whose rows are not singletons, in pivot
        # order (a dict used as an ordered set).
        self._unresolved: dict[int, None] = {}

    def add_equation(self, coeffs, rhs: int) -> list[tuple[int, int]]:
        """Insert one equation; ``coeffs`` maps column -> coefficient, and a
        zero coefficient is the same as an absent column.

        For GF(2) an int bitmask is also accepted.  Returns ``(col, value)``
        per newly determined unknown, in pivot insertion order.  Raises
        :class:`InconsistentSystemError`, carrying the reduced rhs, when the
        equation contradicts the current span; the solver is then as it was
        before the call.
        """
        if self._binary:
            return self._add_binary(coeffs, rhs)
        row = dict(coeffs)
        if 0 in row.values():  # rows hold nonzero entries only: log[0] means nothing
            row = {c: v for c, v in row.items() if v}
        return self._add_generic(row, rhs)

    # -- GF(2) fast path ---------------------------------------------------

    def _add_binary(self, mask, rhs: int) -> list[tuple[int, int]]:
        if not isinstance(mask, int):
            m = 0
            for col, coeff in mask.items():
                if coeff & 1:
                    m ^= 1 << col
            mask = m
        pivots = self._pivots
        # Reduce against every pivot column present in the row.  Pivot rows
        # keep their pivot as the lowest set bit, so elimination only ever
        # introduces higher bits and one ascending scan suffices.
        scan = mask
        while scan:
            low = scan & -scan
            col = low.bit_length() - 1
            hit = pivots.get(col)
            if hit is not None:
                mask ^= hit[0]
                rhs ^= hit[1]
                scan = mask >> (col + 1) << (col + 1)
            else:
                scan ^= low
        if mask == 0:
            if rhs:
                raise InconsistentSystemError(rhs)
            return []
        col = (mask & -mask).bit_length() - 1
        bit = 1 << col
        fresh = []
        for c, (pm, pr) in list(pivots.items()):
            if pm & bit:
                pm ^= mask
                pr ^= rhs
                pivots[c] = (pm, pr)
                if pm & (pm - 1) == 0:
                    fresh.append((c, pr))
        pivots[col] = (mask, rhs)
        if mask == bit:
            fresh.append((col, rhs))
        return fresh

    # -- GF(2^8) path ------------------------------------------------------

    def _add_generic(self, row: dict[int, int], rhs: int) -> list[tuple[int, int]]:
        # Rows hold nonzero coefficients only, so every product is a lookup
        # in the field's tables: a*b = exp[log a + log b].  An rhs of more
        # than one lane (>= size) is scaled lane-wise by ``scale`` instead.
        field = self.field
        exp, log, scale, size = field.exp, field.log, field.scale, field.size
        pivots = self._pivots
        # One pass over the pivot columns the row holds.  Every pivot row is
        # zero on every other pivot column (RREF), so eliminating one never
        # changes the row's entry at another: each factor is read as it
        # stands and the reduced row does not depend on the order.
        for c in row.keys() & pivots.keys():
            prow, prhs = pivots[c]
            lf = log[row[c]]
            for cc, v in prow.items():
                nv = row.get(cc, 0) ^ exp[lf + log[v]]
                if nv:
                    row[cc] = nv
                else:
                    del row[cc]
            if prhs:
                rhs ^= exp[lf + log[prhs]] if prhs < size else _scale_lanes(prhs, scale[lf])
        if not row:
            if rhs:
                raise InconsistentSystemError(rhs)
            return []
        col = min(row)
        # Normalize the pivot to 1 by dividing by the lead: subtract its log
        # mod the group order, and keep the row's logs for the walk below.
        order = size - 1
        lead = log[row[col]]
        if len(row) == 1:
            lrow = ((col, 0),)
            row = {col: 1}
        else:
            lrow = [(c, (log[v] - lead) % order) for c, v in row.items()]
            row = {c: exp[lv] for c, lv in lrow}
        if rhs >= size:
            rhs = _scale_lanes(rhs, scale[-lead % order])
        elif rhs:
            lrhs = (log[rhs] - lead) % order
            rhs = exp[lrhs]
        # Back-substitute into the rows that hold the new pivot column; a
        # singleton row holds no other pivot's column, so only unresolved
        # rows are looked at, in pivot order as the fresh list needs.
        fresh = []
        unresolved = self._unresolved
        for c in list(unresolved):
            prow, prhs = pivots[c]
            factor = prow.get(col)
            if factor:
                lf = log[factor]
                nrow = dict(prow)
                for cc, lv in lrow:
                    nv = nrow.get(cc, 0) ^ exp[lf + lv]
                    if nv:
                        nrow[cc] = nv
                    else:
                        del nrow[cc]
                if rhs:
                    prhs ^= exp[lf + lrhs] if rhs < size else _scale_lanes(rhs, scale[lf])
                pivots[c] = (nrow, prhs)
                if len(nrow) == 1:
                    fresh.append((c, prhs))
                    del unresolved[c]
        pivots[col] = (row, rhs)
        if len(row) == 1:
            fresh.append((col, rhs))
        else:
            unresolved[col] = None
        return fresh
