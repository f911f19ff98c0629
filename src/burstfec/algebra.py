"""Arithmetic over GF(2) and GF(2^8), and exact linear-system solving.

Sub-symbols live in one of these two characteristic-2 fields.  The default
is plain GF(2) (addition is XOR, multiplication is AND), which is all the
shipped constructions need; GF(2^8) with the reduction polynomial 0x11D is
kept as a fallback for block codes that have no binary realization.

The elimination code is shared by the block-code verifier and the streaming
decoder.  It keeps the system in reduced row echelon form at all times so
that an unknown is reported *determined* exactly when every satisfying
assignment gives it the same value.  Rows are packed lanes on both fields,
one coefficient per bit on GF(2) and per byte on GF(2^8), so one
elimination loop serves both.
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
      by 2^l at once.  The encoder scales a source row over time this way,
      and the solver a packed row or right-hand side, such as the deadline
      sweep's rhs with one burst start per byte lane.

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

    Rows are packed lanes on both fields: an int whose lane j, ``m`` =
    ``order_exponent`` bits wide, holds a coefficient (bit j on GF(2), byte
    j on GF(2^8)).  An equation's row starts at column ``base``; a pivot row
    starts at its pivot column, whose lane is scaled to 1, so the ints are
    as wide as a row's span however far the columns run, and a row is a
    singleton exactly when it is 1.  A factor other than 1 occurs only on
    GF(2^8), where it scales every lane of a row at once through
    ``FieldSpec.scale``.

    A pivot row changes only when an equation's new pivot column is
    eliminated from it, and a singleton row never holds another pivot's
    column, so the fresh singletons are found among the rows an equation
    touches plus its own new row; the other rows need no rescan.  GF(2^8)
    looks for touched rows only among the pivots whose rows are not yet
    singletons.  GF(2) walks every pivot row: the same skip would serve it,
    and is left for the change that makes its long decodes linear.

    A right-hand side may pack a vector into one int, in the same lanes: bit
    j is entry j on GF(2), byte lane j on GF(2^8), and a product scales it
    exactly as it scales a row.  Elimination is linear in the rhs, so on
    GF(2^8) with one burst start's rhs per lane it returns every start's
    value at once, and on GF(2) with unit vectors as rhs the combinations of
    the equations' rhs that give the values.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self._m = field.order_exponent  # lane width in bits
        self._lane = field.size - 1  # one lane's mask
        self._pivots: dict[int, tuple[int, int]] = {}  # col -> (row, rhs)
        # GF(2^8): pivot columns whose rows are not singletons, in pivot
        # order (a dict used as an ordered set).  None on GF(2), which walks
        # every pivot row.
        self._unresolved: dict[int, None] | None = {} if self._m > 1 else None

    def _times(self, v: int, factor: int) -> int:
        """``v`` with every lane multiplied by the GF(2^8) ``factor``."""
        return _scale_lanes(v, self.field.scale[self.field.log[factor]])

    def add_equation(self, coeffs, rhs: int, base: int = 0) -> list[tuple[int, int]]:
        """Insert one equation.  ``coeffs`` is a packed row whose lane j holds
        column ``base`` + j, or maps j -> coefficient of column ``base`` + j,
        a zero coefficient being the same as an absent column.

        Returns ``(col, value)`` per newly determined unknown, in pivot
        insertion order.  Raises :class:`InconsistentSystemError`, carrying
        the reduced rhs, when the equation contradicts the current span; the
        solver is then as it was before the call.
        """
        m, lane = self._m, self._lane
        if isinstance(coeffs, int):
            row = coeffs
        else:
            row = 0
            for col, coeff in coeffs.items():
                if not 0 <= coeff <= lane:
                    raise ValueError(f"coefficient {coeff!r} of column {base + col} outside [0, {lane + 1})")
                row ^= coeff << (col * m)
        pivots = self._pivots
        # Reduce against every pivot column present in the row.  Pivot rows
        # keep their pivot as the lowest nonzero lane, so elimination only
        # ever changes higher lanes and one ascending scan suffices.
        scan = row
        while scan:
            k = ((scan & -scan).bit_length() - 1) // m
            hit = pivots.get(base + k)
            at = k * m
            top = at + m
            if hit is not None:
                prow, prhs = hit
                f = row >> at & lane
                if f != 1:
                    prow, prhs = self._times(prow, f), self._times(prhs, f)
                row ^= prow << at
                rhs ^= prhs
                scan = row >> top << top
            else:
                scan = scan >> top << top
        if row == 0:
            if rhs:
                raise InconsistentSystemError(rhs)
            return []
        k = ((row & -row).bit_length() - 1) // m
        col = base + k
        row >>= k * m
        f = row & lane
        if f != 1:  # normalise the pivot lane to 1: scale by 1/f, 2^-log(f) mod 255
            table = self.field.scale[-self.field.log[f] % lane]
            row, rhs = _scale_lanes(row, table), _scale_lanes(rhs, table)
        # Back-substitute into every row holding the new pivot column, which
        # sits (col - c) lanes above row c's pivot.  A singleton row holds no
        # other pivot's column, so GF(2^8) looks only at the unresolved rows;
        # both walks keep pivot order, as the fresh list needs.
        fresh = []
        unresolved = self._unresolved
        walk = list(pivots.items()) if unresolved is None else [(c, pivots[c]) for c in unresolved]
        for c, (prow, prhs) in walk:
            d = col - c
            if d > 0 and (f := prow >> d * m & lane):
                d *= m
                if f == 1:
                    prow ^= row << d
                    prhs ^= rhs
                else:
                    prow ^= self._times(row, f) << d
                    prhs ^= self._times(rhs, f)
                pivots[c] = (prow, prhs)
                if prow == 1:
                    fresh.append((c, prhs))
                    if unresolved is not None:
                        del unresolved[c]
        pivots[col] = (row, rhs)
        if row == 1:
            fresh.append((col, rhs))
        elif unresolved is not None:
            unresolved[col] = None
        return fresh
