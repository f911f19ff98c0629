"""Arithmetic over GF(2^m) and exact linear-system solving.

Sub-symbols live in a characteristic-2 field.  The default field is plain
GF(2) (addition is XOR, multiplication is AND), which is all the shipped
constructions need; GF(2^8) with the reduction polynomial 0x11D is kept as a
fallback for block codes that have no binary realization.

The elimination code is shared by the block-code verifier and the streaming
decoder.  It keeps the system in reduced row echelon form at all times so
that an unknown is reported *determined* exactly when every satisfying
assignment gives it the same value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class InconsistentSystemError(ValueError):
    """A linear system contradicts itself (0 = nonzero after reduction)."""


def _is_irreducible(poly: int, m: int) -> bool:
    # Trial division by all polynomials of degree 1..m//2 over GF(2).
    for d in range(1, m // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if _poly_mod(poly, cand) == 0:
                return False
    return True


def _poly_mod(a: int, b: int) -> int:
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^m) description: ``order_exponent`` m and a reduction polynomial.

    The polynomial is an integer bitmask with bit m set (ignored for m=1).
    """

    order_exponent: int = 1
    reduction_polynomial: int = 0x11D

    def __post_init__(self) -> None:
        m = self.order_exponent
        if m < 1:
            raise ValueError(f"order exponent must be >= 1, got {m}")
        if m > 1:
            poly = self.reduction_polynomial
            if poly.bit_length() - 1 != m:
                raise ValueError(
                    f"reduction polynomial 0x{poly:X} does not have degree {m}"
                )
            if not _is_irreducible(poly, m):
                raise ValueError(f"reduction polynomial 0x{poly:X} is reducible")
            exp, log = _log_tables(m, poly)
            object.__setattr__(self, "_exp", exp)
            object.__setattr__(self, "_log", log)

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
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.order_exponent == 1:
            return 1
        return self._exp[self.size - 1 - self._log[a]]

    def pow(self, a: int, n: int) -> int:
        result = 1
        for _ in range(n):
            result = self.mul(result, a)
        return result


def _gf_mul(m: int, poly: int, a: int, b: int) -> int:
    """Shift-and-add product reduced by ``poly``: the reference the
    log/antilog tables are built from."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        if a >> m:
            a ^= poly
        b >>= 1
    return out


@lru_cache(maxsize=None)
def _log_tables(m: int, poly: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Antilog table ``exp`` (twice the group order long, so a sum of two
    logs needs no reduction) and log table of GF(2^m) under ``poly``.

    Any irreducible polynomial is accepted, and x need not be primitive for
    it, so the generator is found by search: the first element whose powers
    run through all 2^m - 1 nonzero values.
    """
    order = (1 << m) - 1
    for g in range(2, order + 1):
        powers = [1]
        while len(powers) < order:
            nxt = _gf_mul(m, poly, powers[-1], g)
            if nxt == 1:
                break
            powers.append(nxt)
        if len(powers) == order:
            break
    log = [0] * (order + 1)
    for i, x in enumerate(powers):
        log[x] = i
    return tuple(powers + powers), tuple(log)


GF2 = FieldSpec(1)
GF256 = FieldSpec(8, 0x11D)


class IncrementalSolver:
    """Reduced-row-echelon elimination accepting equations one at a time.

    Unknowns are integer column indices.  After every insertion the system
    stays in RREF, so an unknown is uniquely determined exactly when its
    pivot row has singleton support.  ``add_equation`` returns the unknowns
    that became determined because of that equation.

    A pivot row changes only when an equation's new pivot column is
    eliminated from it, and a singleton row never holds another pivot's
    column, so the fresh singletons are found among the rows an equation
    touches plus its own new row; the other rows need no rescan.

    GF(2) rows are stored as int bitmasks (column j <-> bit j); larger
    fields use sparse coefficient dicts with the pivot normalized to 1.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self._binary = field.order_exponent == 1
        self._pivots: dict[int, tuple] = {}  # col -> (row, rhs)

    def add_equation(self, coeffs, rhs: int) -> list[tuple[int, int]]:
        """Insert one equation; ``coeffs`` maps column -> nonzero coefficient.

        For GF(2) an int bitmask is also accepted.  Returns ``(col, value)``
        per newly determined unknown, in pivot insertion order.  Raises
        :class:`InconsistentSystemError` when the equation contradicts the
        current span.
        """
        if self._binary:
            return self._add_binary(coeffs, rhs)
        return self._add_generic(dict(coeffs), rhs)

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
                raise InconsistentSystemError("contradictory equation")
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

    # -- generic GF(2^m) path ----------------------------------------------

    def _add_generic(self, row: dict[int, int], rhs: int) -> list[tuple[int, int]]:
        f = self.field
        pivots = self._pivots
        while True:
            hit_col = next((c for c in sorted(row) if c in pivots), None)
            if hit_col is None:
                break
            factor = row[hit_col]
            prow, prhs = pivots[hit_col]
            for c, v in prow.items():
                nv = f.add(row.get(c, 0), f.mul(factor, v))
                if nv:
                    row[c] = nv
                elif c in row:
                    del row[c]
            rhs = f.add(rhs, f.mul(factor, prhs))
        if not row:
            if rhs:
                raise InconsistentSystemError("contradictory equation")
            return []
        col = min(row)
        inv = f.inv(row[col])
        row = {c: f.mul(inv, v) for c, v in row.items()}
        rhs = f.mul(inv, rhs)
        fresh = []
        for c, (prow, prhs) in list(pivots.items()):
            factor = prow.get(col, 0)
            if factor:
                nrow = dict(prow)
                for cc, v in row.items():
                    nv = f.add(nrow.get(cc, 0), f.mul(factor, v))
                    if nv:
                        nrow[cc] = nv
                    elif cc in nrow:
                        del nrow[cc]
                nrhs = f.add(prhs, f.mul(factor, rhs))
                pivots[c] = (nrow, nrhs)
                if len(nrow) == 1:
                    fresh.append((c, nrhs))
        pivots[col] = (row, rhs)
        if len(row) == 1:
            fresh.append((col, rhs))
        return fresh
