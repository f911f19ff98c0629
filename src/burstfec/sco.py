"""Single-user streaming codes via diagonal interleaving of a block code.

``construct_sco`` places a (T, B) block code along stream diagonals:
parity row j at time i combines s_l[i - (T + j - l)] for every block tap l.
Those rows are the block's own (``BlockCodeSpec.rows``), built once per
block.  Scaling every delay by a (``BlockCodeSpec.diagonal_rows``'s factor)
realizes the (aB, aT) burst/delay guarantee on the same T source rows.

The opposite-diagonal variant mirrors the source rows and walks the
anti-diagonal; it is only meaningful combined with a main-diagonal stream
(see the multicast constructions), which is also where its per-row emission
offsets come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import FieldSpec
from .code_model import ParityRow, StreamingCodeSpec, Tap, make_row
from .ldbebc import BlockCodeSpec, construct_ldbebc

class InfeasibleParamsError(ValueError):
    """Requested a code outside its feasibility region (T < B)."""


@dataclass(frozen=True)
class ScoParams:
    """Single-user burst length B and decoding delay T."""

    burst: int
    delay: int

    def __post_init__(self) -> None:
        if self.burst < 1:
            raise InfeasibleParamsError("burst must be >= 1")
        if self.delay < self.burst:
            raise InfeasibleParamsError(
                f"delay {self.delay} below burst {self.burst}: capacity is zero"
            )


def single_user_capacity(B: int, T: int) -> Fraction:
    """T/(T+B) when T >= B, else 0."""
    if B < 1 or T < 0:
        raise ValueError("need B >= 1 and T >= 0")
    if T < B:
        return Fraction(0)
    return Fraction(T, T + B)


def opposite_diagonal_rows(
    block: BlockCodeSpec,
    dilation: int,
    emission_offsets: Sequence[int],
) -> tuple[ParityRow, ...]:
    """Mirror the block's source rows (l -> T-1-l) and lay the codeword along
    an anti-diagonal of slope ``dilation``; parity j of the codeword anchored
    at w is emitted at w + emission_offsets[j].
    """
    T = block.T
    rows = []
    for j, taps in enumerate(block.parity_defs):
        c_j = emission_offsets[j]
        row = []
        for l, c in taps:
            mirrored = T - 1 - l
            row.append(Tap(mirrored, c_j + dilation * mirrored, c))
        rows.append(make_row(row, block.field))
    return tuple(rows)


def construct_sco(params: ScoParams, field: FieldSpec | None = None) -> StreamingCodeSpec:
    """Diagonally-interleaved block code as a streaming spec."""
    block = construct_ldbebc(params.burst, params.delay, field)
    label = f"sco({params.burst},{params.delay})"
    return StreamingCodeSpec(block.field, params.delay, block.rows, label)
