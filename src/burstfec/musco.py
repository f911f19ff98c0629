"""Two-receiver multicast codes: region map, capacity formulas, constructions.

Parameters are (B1, T1, B2, T2), stored with B1 <= B2: a point given with
the longer burst first has its users swapped on construction.  The
plane splits into a large-delay regime (T1 >= B2 or T2 >= B1 + B2) with four
capacity cases a/b/c/d, and a low-delay box containing region e (solved) and
region f (solved only on its T1 = B1 and T2 = B2 edges).  Every closed form
is exact rational arithmetic, while the region tests that pick one compare
integers (T2 >= (B2/B1) T1 + B1 is B1*T2 >= B2*T1 + B1*B1).  Every
construction returns a tap-set spec whose rate equals the dispatched
capacity and which the simulator can verify against both users' deadlines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import GF256, FieldSpec
from .code_model import (
    ParityRow,
    StreamingCodeSpec,
    Tap,
    causal_truncate,
    combine_rows,
    compose_rows,
    concat_rows,
    make_row,
    noncausal_part,
    shift_rows,
)
from .ldbebc import BlockCodeSpec, construct_ldbebc
from .sco import InfeasibleParamsError, opposite_diagonal_rows, single_user_capacity


class NonIntegerAlphaError(ValueError):
    """The burst ratio B2/B1 is fractional; this construction needs it whole."""


class UnknownRegionError(ValueError):
    """Capacity (hence an optimal construction) is open for these parameters."""


@dataclass(frozen=True)
class MulticastParams:
    b1: int
    t1: int
    b2: int
    t2: int

    def __post_init__(self) -> None:
        if min(self.b1, self.t1, self.b2, self.t2) < 1:
            raise ValueError("all parameters must be >= 1")
        if self.b2 < self.b1:  # user 1 is the one with the shorter burst
            b1, t1 = self.b1, self.t1
            object.__setattr__(self, "b1", self.b2)
            object.__setattr__(self, "t1", self.t2)
            object.__setattr__(self, "b2", b1)
            object.__setattr__(self, "t2", t1)

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.b2, self.b1)

    @property
    def feasible(self) -> bool:
        return self.t1 >= self.b1 and self.t2 >= self.b2


class Region(enum.Enum):
    A = "a"
    A_PRIME = "a'"
    B = "b"
    C = "c"
    D = "d"
    E = "e"
    F_INTERIOR = "f"
    F_T1_EQ_B1 = "f(T1=B1)"
    F_T2_EQ_B2 = "f(T2=B2)"
    INFEASIBLE = "infeasible"


def classify(p: MulticastParams) -> Region:
    b1, t1, b2, t2 = p.b1, p.t1, p.b2, p.t2
    if t1 < b1 or t2 < b2:
        return Region.INFEASIBLE
    if t1 >= b2 or t2 >= b1 + b2:  # large delay
        if b1 * t2 >= b2 * t1 + b1 * b1:  # T2 >= alpha T1 + B1
            # interference avoidance: integer alpha > 1 and T2 >= (alpha+1) T1
            ia_ok = b2 > b1 and b2 % b1 == 0 and b1 * t2 >= (b2 + b1) * t1
            return Region.A_PRIME if ia_ok else Region.A
        if t1 + b1 < t2:
            return Region.B
        if t1 < t2:
            return Region.C
        return Region.D
    if t2 >= t1 + b1:
        return Region.E
    if t1 == b1:
        return Region.F_T1_EQ_B1
    if t2 == b2:
        return Region.F_T2_EQ_B2
    return Region.F_INTERIOR


def region_inequalities(p: MulticastParams) -> list[str]:
    """Human-readable evaluations of the inequalities behind classify()."""
    a = p.alpha
    out = [
        f"feasible: T1={p.t1} >= B1={p.b1} and T2={p.t2} >= B2={p.b2}: {p.feasible}",
        f"large delay: T1={p.t1} >= B2={p.b2} or T2={p.t2} >= B1+B2={p.b1 + p.b2}: "
        f"{p.t1 >= p.b2 or p.t2 >= p.b1 + p.b2}",
        f"alpha = B2/B1 = {a}",
        f"T2 >= alpha*T1+B1 = {a * p.t1 + p.b1}: {p.t2 >= a * p.t1 + p.b1}",
        f"T1+B1 = {p.t1 + p.b1} < T2: {p.t1 + p.b1 < p.t2}",
        f"T2 >= T1+B1 (low-delay split): {p.t2 >= p.t1 + p.b1}",
    ]
    return out


def upper_bound_pec(p: MulticastParams) -> Fraction:
    """Periodic-erasure-channel bound: (T2-B1)/(T2-B1+B2) above the
    T2 = T1+B1 line, T1/(T1+B2) at or below it."""
    if p.t2 > p.t1 + p.b1:
        return Fraction(p.t2 - p.b1, p.t2 - p.b1 + p.b2)
    return Fraction(p.t1, p.t1 + p.b2)


def upper_bound_cu(p: MulticastParams) -> Fraction:
    """Tightened bound min{C+, C1, C2}, in its four-case closed form."""
    if p.b1 * p.t2 >= p.b2 * p.t1 + p.b1 * p.b1:  # T2 >= alpha T1 + B1
        return single_user_capacity(p.b1, p.t1)
    if p.t1 + p.b1 < p.t2:
        return Fraction(p.t2 - p.b1, p.t2 - p.b1 + p.b2)
    if p.t1 < p.t2:
        return Fraction(p.t1, p.t1 + p.b2)
    return single_user_capacity(p.b2, p.t2)


def f_region_upper_bound(p: MulticastParams) -> Fraction:
    return Fraction(p.t2 - p.b1, 2 * (p.t2 - p.b1) + (p.b2 - p.t1))


@dataclass(frozen=True)
class CapacityResult:
    capacity: Optional[Fraction]
    upper_bound: Fraction
    achieving_construction: Optional[str]


def capacity(p: MulticastParams) -> CapacityResult:
    region = classify(p)
    if region is Region.INFEASIBLE:
        return CapacityResult(Fraction(0), Fraction(0), None)
    if region in (Region.A, Region.A_PRIME):
        c = single_user_capacity(p.b1, p.t1)
        return CapacityResult(c, c, "de-sco")
    if region is Region.B:
        c = Fraction(p.t2 - p.b1, p.t2 - p.b1 + p.b2)
        return CapacityResult(c, c, "de-sco+source-expansion")
    if region is Region.C:
        c = Fraction(p.t1, p.t1 + p.b2)
        return CapacityResult(c, c, f"sco({p.b2},{p.t1})")
    if region is Region.D:
        c = single_user_capacity(p.b2, p.t2)
        return CapacityResult(c, c, f"sco({p.b2},{p.t2})")
    if region is Region.E:
        c = Fraction(p.t1, 2 * p.t1 + p.b1 + p.b2 - p.t2)
        return CapacityResult(c, c, "layered-e")
    if region is Region.F_T1_EQ_B1:
        c = f_region_upper_bound(p)
        return CapacityResult(c, c, "repetition+sco-concat")
    if region is Region.F_T2_EQ_B2:
        c = Fraction(p.t1, 2 * p.t1 + p.b1)
        return CapacityResult(c, c, "sco+repetition-concat")
    # interior of region f: open
    return CapacityResult(None, min(f_region_upper_bound(p), upper_bound_cu(p)), None)


# -- shared construction helpers ---------------------------------------------


def _integer_alpha(p: MulticastParams) -> int:
    if p.b2 % p.b1:
        raise NonIntegerAlphaError(
            f"B2/B1 = {p.alpha} is not an integer; no construction is known here"
        )
    return p.b2 // p.b1


def _block_pair(b_t_pairs, field: FieldSpec | None):
    """Construct several block codes over one common field, escalating all of
    them to GF(2^8) if any single one needs it (0/1 patterns stay valid there
    because matrix rank is preserved under field extension)."""
    blocks = [construct_ldbebc(b, t, field) for b, t in b_t_pairs]
    if any(bl.field == GF256 for bl in blocks):
        blocks = [
            bl
            if bl.field == GF256
            else BlockCodeSpec(bl.T, bl.B, GF256, bl.parity_defs, bl.pattern + "+gf256")
            for bl in blocks
        ]
    return blocks


def _repetition_rows(rows: int, delay: int) -> tuple[ParityRow, ...]:
    return tuple(make_row([Tap(r, delay, 1)]) for r in range(rows))


# -- region (a): diversity-embedded combination ------------------------------


def de_sco_rows(block: BlockCodeSpec, alpha: int, t1: int) -> tuple[ParityRow, ...]:
    """Main-diagonal parity stream p plus the mirrored opposite-diagonal
    stream q delayed by T1, combined row-wise: x[i] = (s[i], p[i] + q[i-T1]).

    The anti-diagonal runs at slope alpha-1 and parity j of the codeword
    anchored at w is emitted at w + (alpha-1)(j+1) + B; these offsets
    reproduce the published worked examples and pass the exhaustive
    two-user deadline sweeps for every parameter combination in range.
    """
    f = alpha - 1
    p_rows = block.rows
    offsets = [f * (j + 1) + block.B for j in range(block.B)]
    q_rows = opposite_diagonal_rows(block, f, offsets)
    return tuple(
        combine_rows(a, b, block.field) for a, b in zip(p_rows, shift_rows(q_rows, t1))
    )


def _de_sco(p: MulticastParams, field: FieldSpec | None) -> StreamingCodeSpec:
    alpha = _integer_alpha(p)
    block = construct_ldbebc(p.b1, p.t1, field)
    rows = de_sco_rows(block, alpha, p.t1)
    return StreamingCodeSpec(
        block.field, p.t1, rows, f"de-sco({p.b1},{p.t1})-({p.b2},{p.t2})"
    )


# -- region (a'): interference-avoidance combination -------------------------


def construct_ia_sco(p: MulticastParams, field: FieldSpec | None = None) -> StreamingCodeSpec:
    """q[i] = p_I[i] + p_II[i - T1] with p_II the vertically-interleaved
    (alpha B, alpha T) stream; needs integer alpha > 1 and T2 >= (alpha+1) T1."""
    alpha = _integer_alpha(p)
    if alpha < 2 or p.t2 < (alpha + 1) * p.t1:
        raise InfeasibleParamsError(
            f"interference avoidance needs T2 >= (alpha+1)*T1; got {p}"
        )
    block = construct_ldbebc(p.b1, p.t1, field)
    p1 = block.rows
    p2 = block.diagonal_rows(alpha)
    rows = tuple(
        combine_rows(a, b, block.field) for a, b in zip(p1, shift_rows(p2, p.t1))
    )
    return StreamingCodeSpec(
        block.field, p.t1, rows, f"ia-sco({p.b1},{p.t1})-({p.b2},{p.t2})"
    )


# -- region (b): delay reduction plus source expansion ------------------------


@dataclass(frozen=True)
class ExpansionPlan:
    """Region-(b) reduction: T1 shrinks to T1~ = (B1/B2)(T2 - B1), and when
    that is fractional each source symbol splits into n^2 T1~ sub-symbols so
    a DE-SCo at (n B1, n T1~) applies on a base expanded by factor n, the
    denominator of T1~."""

    params: MulticastParams
    t1_tilde: Fraction
    n: int

    @property
    def inner_params(self) -> MulticastParams:
        n = self.n
        return MulticastParams(
            n * self.params.b1,
            int(n * self.t1_tilde),
            n * self.params.b2,
            n * self.params.t2,
        )


def source_expand(p: MulticastParams) -> ExpansionPlan:
    t1_tilde = Fraction(p.b1, p.b2) * (p.t2 - p.b1)
    if t1_tilde < p.b1:
        raise InfeasibleParamsError("T1~ below B1; outside region (b)")
    return ExpansionPlan(p, t1_tilde, t1_tilde.denominator)


def fold_spec(spec: StreamingCodeSpec, n: int, label: str) -> StreamingCodeSpec:
    """Fold an expanded-base spec back onto the original time base.

    Expanded step n*i + r maps to phase r of original step i; expanded row
    rho becomes original row r * n_source + rho.  Parity rows are emitted in
    phase-major order, matching transmission of all n expanded parities
    inside one original symbol.
    """
    g = spec.n_source
    rows = []
    for phase in range(n):
        for prow in spec.parity_rows:
            taps = []
            for tap in prow.taps:
                tt = phase - tap.delay
                src_phase = tt % n
                delay = (src_phase - tt) // n
                taps.append(Tap(src_phase * g + tap.source_row, delay, tap.coeff))
            rows.append(make_row(taps, spec.field))
    return StreamingCodeSpec(spec.field, n * g, tuple(rows), label)


def _region_b(p: MulticastParams, field: FieldSpec | None) -> StreamingCodeSpec:
    alpha = _integer_alpha(p)
    plan = source_expand(p)
    ip = plan.inner_params
    block = construct_ldbebc(ip.b1, ip.t1, field)
    rows = de_sco_rows(block, alpha, ip.t1)
    label = f"region-b({p.b1},{p.t1})-({p.b2},{p.t2})"
    if plan.n == 1:
        return StreamingCodeSpec(block.field, ip.t1, rows, label)
    return fold_spec(StreamingCodeSpec(block.field, ip.t1, rows, "inner"), plan.n, label)


# -- regions (c) and (d): single-user reductions ------------------------------


def _region_c(p: MulticastParams, field: FieldSpec | None) -> StreamingCodeSpec:
    block = construct_ldbebc(p.b2, p.t1, field)
    return StreamingCodeSpec(block.field, p.t1, block.rows, f"region-c sco({p.b2},{p.t1})")


def _region_d(p: MulticastParams, field: FieldSpec | None) -> StreamingCodeSpec:
    block = construct_ldbebc(p.b2, p.t2, field)
    return StreamingCodeSpec(block.field, p.t2, block.rows, f"region-d sco({p.b2},{p.t2})")


# -- region (e): layered construction -----------------------------------------


@dataclass(frozen=True)
class RegionEPlan:
    """Layer map of the region-(e) code.

    Rows (after the T1 source rows): layer 2 holds the first k parities of
    the user-1 code, layer 3 the remaining B1-k combined with the first
    repetition rows, layer 4 the remaining repetitions combined with the
    causal parts of helper parities built *on* the layer-3 parity streams
    (case A: one diagonal code advanced by T1; case B: repetition helpers
    advanced by multiples of B1-k plus a final diagonal one).
    """

    params: MulticastParams
    k: int
    field: FieldSpec
    c1_rows: tuple[ParityRow, ...]
    helper_w_rows: tuple[ParityRow, ...]  # over w-space, advances as negative delays
    layer4_causal: tuple[ParityRow, ...]  # transmitted source-space parts
    layer4_dropped: tuple[ParityRow, ...]  # non-causal source-space parts

    @property
    def t3(self) -> int:
        return self.params.b1 - self.k

    def to_spec(self) -> StreamingCodeSpec:
        p = self.params
        t3 = self.t3
        layer2 = self.c1_rows[: self.k]
        layer3 = tuple(
            combine_rows(self.c1_rows[self.k + idx], make_row([Tap(idx, p.t2, 1)]), self.field)
            for idx in range(t3)
        )
        layer4 = tuple(
            combine_rows(make_row([Tap(t3 + idx, p.t2, 1)]), self.layer4_causal[idx], self.field)
            for idx in range(p.t1 - t3)
        )
        rows = concat_rows(concat_rows(layer2, layer3), layer4)
        return StreamingCodeSpec(
            self.field, p.t1, rows, f"region-e({p.b1},{p.t1})-({p.b2},{p.t2})"
        )


def region_e_plan(p: MulticastParams, field: FieldSpec | None = None) -> RegionEPlan:
    if classify(p) is not Region.E:
        raise InfeasibleParamsError(f"{p} is not a region-(e) point")
    k = p.b1 + p.b2 - p.t2
    t3 = p.b1 - k
    if t3 == 0:
        # T2 = B2 corner: no layer 3, layer 4 is bare repetition rows.
        c1 = construct_ldbebc(p.b1, p.t1, field)
        empties = tuple(ParityRow(()) for _ in range(p.t1))
        return RegionEPlan(p, k, c1.field, c1.rows, empties, empties, empties)
    b3 = p.t1 - t3
    if p.t1 <= 2 * t3:
        c1, c3 = _block_pair([(p.b1, p.t1), (b3, t3)], field)
        helper = shift_rows(c3.rows, -p.t1)
    else:
        r, q = divmod(p.t1 - t3, t3)
        pairs = [(p.b1, p.t1)] + ([(q, t3)] if q else [])
        blocks = _block_pair(pairs, field)
        c1 = blocks[0]
        helper_rows: list[ParityRow] = []
        for nn in range(1, r + 1):
            helper_rows.extend(
                make_row([Tap(l, -nn * t3, 1)], c1.field) for l in range(t3)
            )
        if q:
            helper_rows.extend(shift_rows(blocks[1].rows, -p.t1))
        helper = tuple(helper_rows)
    c1_rows = c1.rows
    w_rows = c1_rows[k : p.b1]
    expanded = compose_rows(helper, w_rows, c1.field)
    return RegionEPlan(
        p,
        k,
        c1.field,
        c1_rows,
        helper,
        causal_truncate(expanded),
        noncausal_part(expanded),
    )


def _region_e(p: MulticastParams, field: FieldSpec | None) -> StreamingCodeSpec:
    return region_e_plan(p, field).to_spec()


# -- region (f) edges ----------------------------------------------------------


def _region_f_t1b1(p: MulticastParams, field: FieldSpec | None) -> StreamingCodeSpec:
    """T1 = B1 edge: a (T1, T1) repetition stream concatenated with a
    (B2-B1, T2-T1) diagonal stream delayed by T1.  The edge is low-delay
    (T1 < B2), so B2 > B1 and the diagonal stream is never empty."""
    n_src = p.t2 - p.t1
    c2 = construct_ldbebc(p.b2 - p.b1, n_src, field)
    rows = concat_rows(_repetition_rows(n_src, p.t1), shift_rows(c2.rows, p.t1))
    return StreamingCodeSpec(
        c2.field, n_src, rows,
        f"region-f-minT1({p.b1},{p.t1})-({p.b2},{p.t2})",
    )


def _region_f_t2b2(p: MulticastParams, field: FieldSpec | None) -> StreamingCodeSpec:
    """T2 = B2 edge: a (B1, T1) diagonal stream concatenated with a (T2, T2)
    repetition stream."""
    c1 = construct_ldbebc(p.b1, p.t1, field)
    rows = concat_rows(c1.rows, _repetition_rows(p.t1, p.t2))
    return StreamingCodeSpec(
        c1.field, p.t1, rows,
        f"region-f-minT2({p.b1},{p.t1})-({p.b2},{p.t2})",
    )


# -- dispatch ------------------------------------------------------------------


# Region -> (builder, whether it needs B1 | B2).  A builder trusts the region
# it is dispatched on; the infeasible points and the open interior of region
# (f) have none.
_BUILDERS = {
    Region.A: (_de_sco, True),
    Region.A_PRIME: (_de_sco, True),
    Region.B: (_region_b, True),
    Region.C: (_region_c, False),
    Region.D: (_region_d, False),
    Region.E: (_region_e, False),
    Region.F_T1_EQ_B1: (_region_f_t1b1, False),
    Region.F_T2_EQ_B2: (_region_f_t2b2, False),
}


def construct(p: MulticastParams, field: FieldSpec | None = None) -> StreamingCodeSpec:
    """Capacity-achieving code for any region where one is known.

    Raises :class:`InfeasibleParamsError` when some user has delay below
    its burst, :class:`UnknownRegionError` inside region (f) (capacity
    open), :class:`NonIntegerAlphaError` in regions (a)/(a')/(b) with
    fractional B2/B1, and :class:`~burstfec.ldbebc.ConstructionError` when
    the requested ``field`` holds no block code the construction needs.
    All four are subclasses of ``ValueError``.

    Every call builds a new spec; only the block codes it lays along the
    diagonals (:func:`construct_ldbebc`) are cached, once per (B, T, field),
    and each carries its diagonal rows, so a region-(c)/(d) spec shares
    them whole.
    """
    region = classify(p)
    entry = _BUILDERS.get(region)
    if entry is None:
        if region is Region.INFEASIBLE:
            raise InfeasibleParamsError(f"{p}: some user has delay below its burst")
        raise UnknownRegionError(
            f"{p} lies in the interior of region (f); capacity is open"
        )
    return entry[0](p, field)


def constructible(p: MulticastParams) -> bool:
    entry = _BUILDERS.get(classify(p))
    return entry is not None and (not entry[1] or p.b2 % p.b1 == 0)
