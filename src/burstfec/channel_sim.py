"""Erasure patterns, the universal linear decoder, and deadline sweeps.

The decoder is construction-agnostic: unknowns are the source sub-symbols of
erased time steps, every received systematic or parity sub-symbol contributes
one linear equation, and incremental row reduction reports the first time
step at which each unknown is pinned down.  Determinedness is exact (an
unknown is reported recovered at time t iff all source streams consistent
with the symbols received up to t agree on it), which is what makes the
sweeps in here usable as acceptance oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .algebra import IncrementalSolver, InconsistentSystemError
from .code_model import StreamingCodeSpec, encode
from .musco import Region, classify, region_e_plan

ERASED = None  # erasure mark in a received stream


@dataclass(frozen=True)
class SingleBurst:
    """Erases exactly [start, start + length - 1]."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.length < 0:
            raise ValueError("burst start/length must be non-negative")

    def erased(self, t: int) -> bool:
        return self.start <= t < self.start + self.length


@dataclass(frozen=True)
class Periodic:
    """Erases [k*period, k*period + burst - 1] for every k >= 0.

    ``revealed`` lists in-period offsets exempted from erasure; they model
    the genie-revealed symbols of the counting arguments and are excluded
    from the recovered-symbol counts.
    """

    period: int
    burst: int
    revealed: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.burst <= self.period:
            raise ValueError("need 0 < burst <= period")
        if any(not 0 <= o < self.burst for o in self.revealed):
            raise ValueError(f"revealed offsets {self.revealed} must lie in [0, {self.burst})")
        if len(set(self.revealed)) != len(self.revealed):
            raise ValueError(f"revealed offsets {self.revealed} repeat")

    def erased(self, t: int) -> bool:
        phase = t % self.period
        return t >= 0 and phase < self.burst and phase not in self.revealed

    def is_revealed(self, t: int) -> bool:
        phase = t % self.period
        return t >= 0 and phase < self.burst and phase in self.revealed


ErasurePattern = SingleBurst | Periodic


def apply_channel(stream: Sequence[tuple], pattern: ErasurePattern) -> list:
    """Replace erased symbols with the erasure mark; pass the rest through."""
    return [ERASED if pattern.erased(t) else sym for t, sym in enumerate(stream)]


@dataclass
class SymbolReport:
    erased: bool
    recovery_time: Optional[int]
    value: Optional[int]


@dataclass
class DecodeReport:
    """Per source sub-symbol (t, row): earliest determination time and value."""

    n_source: int
    horizon: int
    entries: dict = dc_field(default_factory=dict)  # (t, row) -> SymbolReport

    def recovery_time(self, t: int, row: int) -> Optional[int]:
        return self.entries[(t, row)].recovery_time

    def symbol_recovery_time(self, t: int) -> Optional[int]:
        """Latest recovery time over the rows of s[t]; None if any row failed."""
        times = [self.entries[(t, r)].recovery_time for r in range(self.n_source)]
        if any(x is None for x in times):
            return None
        return max(times)

    def erased_entries(self):
        return ((key, rep) for key, rep in self.entries.items() if rep.erased)

    def to_csv_rows(self) -> list[tuple]:
        rows = []
        for (t, row) in sorted(self.entries):
            rep = self.entries[(t, row)]
            rec = "FAIL" if rep.recovery_time is None else rep.recovery_time
            rows.append((t, row, int(rep.erased), rec))
        return rows


def _equations(spec: StreamingCodeSpec, erased_times: Sequence[int], horizon: int):
    """The equations a received prefix gives on the source sub-symbols of
    ``erased_times``, in time order.

    ``erased_times`` is ascending and below ``horizon``.  Yields
    ``(t, pos, eq, known)`` per received parity sub-symbol (t, pos) whose
    taps reach an unknown: ``eq`` maps the unknowns' columns (erased time
    index * n_source + row) to coefficients, as a bitmask on GF(2), and
    ``known`` lists the ``(delay, source row, w)`` taps that read a received
    source, whose values :func:`_solve` folds into the rhs.  The other parity
    sub-symbols carry no information about the unknowns, so the scan starts
    at the first erased time.
    """
    if not erased_times:
        return
    n_src = spec.n_source
    field = spec.field
    binary = field.order_exponent == 1
    first_col = {t: i * n_src for i, t in enumerate(erased_times)}
    # Per-tap (delay, source row, w): on GF(2^8) w is the log of the
    # coefficient, so every product is a table lookup; GF(2) ignores it.  A
    # zero tap adds nothing to either side of an equation, and leaving it
    # out keeps log[0] out of the arithmetic.
    if binary:
        rows = [
            (n_src + r, [(tap.delay, tap.source_row, tap.coeff) for tap in prow.taps])
            for r, prow in enumerate(spec.parity_rows)
        ]
    else:
        exp, log = field.exp, field.log
        rows = [
            (n_src + r, [(tap.delay, tap.source_row, log[tap.coeff]) for tap in prow.taps if tap.coeff])
            for r, prow in enumerate(spec.parity_rows)
        ]
    for t in range(erased_times[0], horizon):
        if t in first_col:
            continue
        for pos, taps in rows:
            if binary:
                eq = 0
                for delay, row, _ in taps:
                    col = first_col.get(t - delay)
                    if col is not None:
                        eq ^= 1 << (col + row)
            else:
                eq = {}
                for delay, row, w in taps:
                    col = first_col.get(t - delay)
                    if col is not None:
                        eq[col + row] = eq.get(col + row, 0) ^ exp[w]
                if 0 in eq.values():
                    eq = {c: v for c, v in eq.items() if v}
            if eq:
                known = [
                    (delay, row, w)
                    for delay, row, w in taps
                    if t - delay >= 0 and t - delay not in first_col
                ]
                yield t, pos, eq, known


def _with_rhs(field, equations, received: Sequence, shift: int):
    """``(t, eq, rhs)`` per equation of ``equations`` (as :func:`_equations`
    yields them), every time in it moved ``shift`` steps later and the rhs
    read from ``received`` at the moved times: the parity sub-symbol less
    its known taps."""
    binary = field.order_exponent == 1
    if not binary:
        exp, log = field.exp, field.log
    for t, pos, eq, known in equations:
        t += shift
        rhs = received[t][pos]
        if binary:
            for delay, row, _ in known:
                rhs ^= received[t - delay][row]
        else:
            for delay, row, w in known:
                value = received[t - delay][row]
                if value:
                    rhs ^= exp[w + log[value]]
        yield t, eq, rhs


def _solve(field, equations, received: Sequence, n_unknowns: int) -> list:
    """Feed ``equations`` to one incremental solver, each rhs read from
    ``received``.

    Returns ``(recovery_time, value)`` per unknown column, ``(None, None)``
    when the equations never determine it.
    """
    solver = IncrementalSolver(field)
    recovered = [(None, None)] * n_unknowns
    for t, eq, rhs in _with_rhs(field, equations, received, 0):
        for col, value in solver.add_equation(eq, rhs):
            recovered[col] = (t, value)
    return recovered


def _combinations(field, equations: Sequence, n_unknowns: int):
    """Eliminate ``equations`` once, the rhs of the j-th being the unit
    vector e_j: bit j of an int on GF(2), byte lane j on GF(2^8).

    Elimination is linear in the rhs, so the solver hands back, in place of
    values, combinations of the equations' rhs values.  Returns
    ``(times, combinations, residuals)``: per unknown column its recovery
    time and combination, ``None`` and 0 when the equations never determine
    it, and per dependent equation the combination that must be 0 for the
    system to be consistent.  A combination is an int on GF(2) and a list of
    ``(equation index, log coefficient)`` on GF(2^8), as :func:`_evaluate`
    reads it.
    """
    binary = field.order_exponent == 1
    lane = 1 if binary else 8
    solver = IncrementalSolver(field)
    times = [None] * n_unknowns
    combinations = [0] * n_unknowns
    residuals = []
    for j, (t, _, eq, _) in enumerate(equations):
        try:
            fresh = solver.add_equation(eq, 1 << (lane * j))
        except InconsistentSystemError as exc:  # eq is in the span: e_j survives
            residuals.append(exc.rhs)
            continue
        for col, combo in fresh:
            times[col] = t
            combinations[col] = combo
    if not binary:
        log = field.log

        def terms(combo):
            lanes = combo.to_bytes((combo.bit_length() + 7) >> 3, "little")
            return [(j, log[c]) for j, c in enumerate(lanes) if c]

        combinations = [terms(combo) for combo in combinations]
        residuals = [terms(combo) for combo in residuals]
    return times, combinations, residuals


def _evaluate(field, combinations, values: Sequence[int]) -> list[int]:
    """The value of each of :func:`_combinations`' ``combinations`` at the
    rhs ``values``."""
    if field.order_exponent == 1:
        packed = 0
        for j, value in enumerate(values):
            if value:
                packed |= 1 << j
        return [(combo & packed).bit_count() & 1 for combo in combinations]
    exp, log = field.exp, field.log
    logs = [log[value] if value else None for value in values]
    out = []
    for terms in combinations:
        acc = 0
        for j, lc in terms:
            lv = logs[j]
            if lv is not None:
                acc ^= exp[lc + lv]
        out.append(acc)
    return out


def generic_decode(
    spec: StreamingCodeSpec,
    received: Sequence,
    pattern: ErasurePattern,
    horizon: int,
) -> DecodeReport:
    """Incremental elimination over the erased source sub-symbols.

    Equations arrive in time order; the recovery time of an unknown is the
    first step at which the received prefix determines it uniquely.
    """
    if not 1 <= horizon <= len(received):
        raise ValueError(
            f"horizon {horizon} outside [1, {len(received)}], the received length"
        )
    erased = [t for t in range(horizon) if pattern.erased(t)]
    for t in erased:
        if received[t] is not ERASED:
            raise ValueError(f"received symbol present at erased time {t}")
    erased_set = set(erased)
    clean = [t for t in range(horizon) if t not in erased_set]
    for t in clean:
        if received[t] is ERASED:
            raise ValueError(f"missing symbol at unerased time {t}")
    n_src = spec.n_source
    report = DecodeReport(n_src, horizon)
    entries = report.entries
    equations = _equations(spec, erased, horizon)
    recovered = _solve(spec.field, equations, received, len(erased) * n_src)
    for col, (when, value) in enumerate(recovered):
        entries[(erased[col // n_src], col % n_src)] = SymbolReport(True, when, value)
    for t in clean:
        sym = received[t]
        for row in range(n_src):
            entries[(t, row)] = SymbolReport(False, t, sym[row])
    return report


# -- deadline verification ---------------------------------------------------


def source_fill(n_source: int, horizon: int, field_size: int, seed: int = 0) -> list[tuple]:
    """Deterministic pseudo-random source stream (no RNG state)."""
    out = []
    for t in range(horizon):
        row = []
        for r in range(n_source):
            h = (t * 1000003 + r * 7919 + seed * 104729 + 12345) & 0xFFFFFFFF
            h ^= h >> 13
            h = (h * 2654435761) & 0xFFFFFFFF
            h ^= h >> 17
            row.append(h % field_size if field_size > 2 else (h >> 1) & 1)
        out.append(tuple(row))
    return out


@dataclass(frozen=True)
class UserSpec:
    burst: int
    delay: int

    def __post_init__(self) -> None:
        for name, value in (("burst", self.burst), ("delay", self.delay)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass
class Counterexample:
    burst_start: int
    burst_length: int
    symbol: tuple[int, int]
    deadline: int
    recovery_time: Optional[int]


@dataclass
class VerifyResult:
    passed: bool
    trials: int
    counterexample: Optional[Counterexample] = None


class MisdecodeError(AssertionError):
    """The decoder pinned an erased symbol to a value other than the encoded
    one: a fault in the encoder or the decoder, never in the caller's input."""


def verify_deadlines(
    spec: StreamingCodeSpec,
    user: UserSpec,
    window: int,
    seed: int = 0,
) -> VerifyResult:
    """Exhaustive single-burst sweep: every start in [memory, memory+window)
    and every burst length in [1, user.burst] must decode every erased source
    sub-symbol by its deadline t + user.delay (inclusive).

    All trials decode one encoded stream.  Each burst length is eliminated
    once; every trial then evaluates that elimination's recovery
    combinations at its own received values, checks each decoded value
    against the encoded source and checks that every dependent equation
    agrees with the others.  Returns the first counterexample found,
    scanning starts in order.  Raises ``ValueError`` when ``window`` is
    below 1, :class:`MisdecodeError` on a wrong decoded value and
    :class:`InconsistentSystemError` on a contradicting equation.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if user.burst == 0:
        return VerifyResult(True, 0)
    memory = spec.memory
    n_src = spec.n_source
    field = spec.field
    horizon = memory + window + user.burst + user.delay + 1
    src = source_fill(n_src, horizon, field.size, seed)
    channel = encode(spec, src, horizon)
    # Each length's equations are built and eliminated once, for the burst
    # at start ``memory``, and replayed shifted to every later start.  That
    # is exact: every start is >= memory, so every tap of a received time
    # t >= start reaches t - delay >= 0, and the t - delay >= 0 filter and
    # the erased columns are the same at every start.  So are the row
    # operations, which never look at an rhs: only the rhs values move, and
    # each start evaluates the combinations the one elimination recorded.
    # Equations arriving after the last deadline, start + length + delay,
    # cannot help meet it.
    plans = []
    for length in range(1, user.burst + 1):
        last = memory + length + user.delay
        equations = list(_equations(spec, range(memory, memory + length), last + 1))
        plans.append((equations, *_combinations(field, equations, length * n_src)))
    trials = 0
    for start in range(memory, memory + window):
        shift = start - memory
        for length, (equations, times, combinations, residuals) in enumerate(plans, start=1):
            trials += 1
            values = [rhs for _, _, rhs in _with_rhs(field, equations, channel, shift)]
            contradiction = next((v for v in _evaluate(field, residuals, values) if v), 0)
            if contradiction:
                raise InconsistentSystemError(
                    contradiction, f"contradictory equation at burst start {start}, length {length}"
                )
            decoded = _evaluate(field, combinations, values)
            for col, when in enumerate(times):
                t, row = start + col // n_src, col % n_src
                if when is None or when + shift > t + user.delay:
                    return VerifyResult(
                        False,
                        trials,
                        Counterexample(
                            start, length, (t, row), t + user.delay, None if when is None else when + shift
                        ),
                    )
                if decoded[col] != src[t][row]:
                    raise MisdecodeError(
                        f"decoder returned a wrong value at {(t, row)}: encoder bug"
                    )
    return VerifyResult(True, trials)


# -- periodic-erasure-channel schedules ---------------------------------------


# The counting schedule behind the converse of each solved region.  Regions
# a, a' and b count on case A above the T2 = T1 + B1 line and on case B on it.
_REGION_SCHEDULES = {
    Region.A: "multicast_caseA",
    Region.A_PRIME: "multicast_caseA",
    Region.B: "multicast_caseA",
    Region.C: "multicast_caseB",
    Region.D: "multicast_caseB",
    Region.E: "region_e",
    Region.F_T1_EQ_B1: "region_f1",
    Region.F_T2_EQ_B2: "region_f_T2B2",
}


def region_schedule(params) -> str:
    """Name of the counting schedule that fits ``params``' region."""
    region = classify(params)
    variant = _REGION_SCHEDULES.get(region)
    if variant is None:
        raise ValueError(f"region {region.value} has no counting schedule")
    if variant == "multicast_caseA" and params.t2 <= params.t1 + params.b1:
        return "multicast_caseB"
    return variant


def make_periodic(variant: str, params) -> Periodic:
    """Periodic pattern for the named counting schedule.

    ``params`` is a :class:`MulticastParams` (a (B, T) tuple for the
    single-user variant).  A ``region_*`` schedule is the counting argument
    of that region alone, so it is refused on a point of another region.
    """
    if variant == "single_user":
        B, T = params
        return Periodic(period=T + B, burst=B)
    if variant.startswith("region_") and variant in _REGION_SCHEDULES.values():
        region = classify(params)
        if _REGION_SCHEDULES.get(region) != variant:
            raise ValueError(f"variant {variant} does not fit region {region.value}")
    b1, t1, b2, t2 = params.b1, params.t1, params.b2, params.t2
    if variant == "multicast_caseA":
        if t2 <= t1 + b1:
            raise ValueError("case A needs T2 > T1 + B1")
        return Periodic(period=t2 + b2 - b1, burst=b2)
    if variant == "multicast_caseB":
        if t2 > t1 + b1:
            raise ValueError("case B needs T2 <= T1 + B1")
        return Periodic(period=b2 + t1, burst=b2)
    if variant == "region_e":
        a = t1 + b2 - t2
        b = b2 - b1
        return Periodic(period=b2 + t1, burst=b2, revealed=tuple(range(a, b)))
    if variant == "region_f1":
        a = b2 - b1
        b = a + t2 - t1
        return Periodic(period=b2 + t2 - b1, burst=b2, revealed=tuple(range(b, b2)))
    if variant == "region_f_T2B2":
        return Periodic(period=b2 + t1, burst=b2)
    raise ValueError(f"unknown periodic variant {variant!r}")


@dataclass
class PecPeriodSummary:
    period_index: int
    erased: int
    recovered: int
    revealed: int
    unerased_counted: int
    double_recovered: int = 0

    @property
    def counted_recovered(self) -> int:
        # revealed positions are excluded; double recoveries count twice
        return self.recovered + self.unerased_counted + self.double_recovered


@dataclass
class PecRunResult:
    pattern: Periodic
    periods: int
    report: DecodeReport
    summaries: list[PecPeriodSummary]

    def schedule(self) -> list[tuple[int, Optional[int]]]:
        out = []
        for t in range(self.periods * self.pattern.period):
            if self.pattern.erased(t):
                out.append((t, self.report.symbol_recovery_time(t)))
        return out


def run_pec(
    spec: StreamingCodeSpec,
    pattern: Periodic,
    periods: int = 4,
    seed: int = 0,
    double_rule: Optional[tuple[int, int]] = None,
) -> PecRunResult:
    """Encode, erase periodically, decode, and tally per-period counts.

    The simulation runs ``periods`` full periods with the tail unerased.
    ``double_rule=(T1, T2)`` activates the double tally of the minimum-delay
    counting argument: an erased symbol counts twice when the fast code
    already pinned it down by t + T1 *and* its direct repetition copy at
    t + T2 arrives unerased, so either decoder alone would have produced it.
    Raises ``ValueError`` when ``periods`` is below 1.
    """
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    horizon = periods * pattern.period + spec.memory + 1
    src = source_fill(spec.n_source, horizon, spec.field.size, seed)
    channel = encode(spec, src, horizon)
    received = apply_channel(channel, pattern)
    report = generic_decode(spec, received, pattern, horizon)

    def is_double(t: int) -> bool:
        if double_rule is None:
            return False
        t1, t2 = double_rule
        rec = report.symbol_recovery_time(t)
        return rec is not None and rec <= t + t1 and not pattern.erased(t + t2)

    summaries = []
    for k in range(periods):
        lo, hi = k * pattern.period, (k + 1) * pattern.period
        erased = [t for t in range(lo, hi) if pattern.erased(t)]
        revealed = [t for t in range(lo, hi) if pattern.is_revealed(t)]
        recovered = sum(1 for t in erased if report.symbol_recovery_time(t) is not None)
        summaries.append(
            PecPeriodSummary(
                period_index=k,
                erased=len(erased),
                recovered=recovered,
                revealed=len(revealed),
                unerased_counted=pattern.period - pattern.burst,
                double_recovered=sum(1 for t in erased if is_double(t)),
            )
        )
    return PecRunResult(pattern, periods, report, summaries)


# -- structured region-(e) decoding -------------------------------------------


class StructureMismatchError(ValueError):
    """The spec handed in was not produced by the region-(e) construction."""


@dataclass
class RegionEDecodeResult:
    report: DecodeReport
    helper_recoveries: dict  # (c1 parity row index, time) -> availability time


def region_e_structured_decode(
    spec: StreamingCodeSpec,
    params,
    received: Sequence,
    burst: SingleBurst,
) -> RegionEDecodeResult:
    """Layered decode of a full-length burst on the weaker user's channel.

    Follows the construction's own recipe instead of generic elimination:
    (1) rebuild the missing layer-3 parity values from the helper parities
    riding in layer 4 (with their non-causal parts completed), checking the
    zero-delay property as it goes; (2)/(3) strip the recovered and the
    directly-computable interference from layers 3 and 4; (4) read the
    repetition copies to recover every erased source symbol at delay T2.
    """
    plan = region_e_plan(params)
    if plan.to_spec().parity_rows != spec.parity_rows or plan.params != params:
        raise StructureMismatchError("spec does not match the region-(e) plan")
    p = plan.params
    if burst.length != p.b2:
        raise StructureMismatchError(f"expected a burst of length B2={p.b2}")
    field = spec.field
    t1, t2, t3, k = p.t1, p.t2, plan.t3, plan.k
    sigma = burst.start
    i_end = sigma + p.b2  # first clean time after the burst
    n_src = spec.n_source
    l2_off, l3_off, l4_off = n_src + 0, n_src + k, n_src + p.b1

    def src_val(t: int, row: int) -> int:
        if t < 0:
            return 0
        sym = received[t]
        if sym is ERASED:
            raise StructureMismatchError(f"needed source s{row}[{t}] is erased")
        return sym[row]

    def row_value(prow, t: int) -> int:
        acc = 0
        for tap in prow.taps:
            acc = field.add(acc, field.mul(tap.coeff, src_val(t - tap.delay, tap.source_row)))
        return acc

    def w_from_sources(j: int, t: int) -> tuple[int, int]:
        """(value, availability) of c1 parity row j at time t, via unerased
        sources only."""
        prow = plan.c1_rows[j]
        avail = max((t - tap.delay for tap in prow.taps), default=t)
        return row_value(prow, t), max(avail, 0)

    # Step 1a: layer-3 reads before the missing window give w directly.
    w_val: dict[tuple[int, int], int] = {}
    w_avail: dict[tuple[int, int], int] = {}
    for t in range(i_end, i_end + t3):
        for idx in range(t3):
            rep = src_val(t - t2, idx)
            val = field.sub(received[t][l3_off + idx], rep)
            w_val[(k + idx, t)] = val
            w_avail[(k + idx, t)] = t

    # Step 1b..1e: helper equations pin down w over the missing window.
    missing = [
        (k + idx, t)
        for t in range(i_end + t3, i_end + t1)
        for idx in range(t3)
    ]
    helper_recoveries: dict[tuple[int, int], int] = {}
    if missing:
        col = {key: c for c, key in enumerate(missing)}
        solver = IncrementalSolver(field)
        equations = []
        for t in range(i_end, i_end + t3):
            for ell, hrow in enumerate(plan.helper_w_rows):
                rep = src_val(t - t2, t3 + ell)
                tilde = field.sub(received[t][l4_off + ell], rep)
                # add back the non-causal taps the encoder dropped
                avail = t
                full = tilde
                for tap in plan.layer4_dropped[ell].taps:
                    ts = t - tap.delay  # delay < 0: a strictly later source
                    full = field.add(full, field.mul(tap.coeff, src_val(ts, tap.source_row)))
                    avail = max(avail, ts)
                eq: dict[int, int] = {}
                for tap in hrow.taps:
                    wt = t - tap.delay
                    key = (k + tap.source_row, wt)
                    if key in col:
                        c = col[key]
                        eq[c] = field.add(eq.get(c, 0), tap.coeff)
                    else:
                        if key not in w_val:
                            v, av = w_from_sources(*key)
                            w_val[key], w_avail[key] = v, av
                        full = field.sub(full, field.mul(tap.coeff, w_val[key]))
                        avail = max(avail, w_avail[key])
                eq = {c: v for c, v in eq.items() if v}
                if eq:
                    equations.append((avail, eq, full))
        equations.sort(key=lambda e: e[0])
        for avail, eq, rhs in equations:
            for c, value in solver.add_equation(eq, rhs):
                j, wt = missing[c]
                w_val[(j, wt)] = value
                w_avail[(j, wt)] = max(avail, w_avail.get((j, wt), 0))
                helper_recoveries[(j, wt)] = avail
        for j, wt in missing:
            if (j, wt) not in w_val:
                raise StructureMismatchError(
                    f"helper parities leave layer-3 value ({j},{wt}) undetermined"
                )
            if w_avail[(j, wt)] > wt:
                raise StructureMismatchError(
                    f"zero-delay recovery violated for layer-3 value ({j},{wt})"
                )

    def w_value_at(j: int, t: int) -> tuple[int, int]:
        key = (j, t)
        if key not in w_val:
            v, av = w_from_sources(j, t)
            w_val[key], w_avail[key] = v, av
        return w_val[key], w_avail[key]

    # Steps 2-4: strip interference at each repetition read and recover.
    report = DecodeReport(n_src, len(received))
    for t in range(len(received)):
        if not burst.erased(t):
            sym = received[t]
            if sym is not ERASED:
                for row in range(n_src):
                    report.entries[(t, row)] = SymbolReport(False, t, sym[row])
    for tau in range(sigma, i_end):
        read_t = tau + t2
        if read_t >= len(received):
            raise StructureMismatchError("received stream too short for the T2 reads")
        for rho in range(n_src):
            if rho < t3:
                wv, wav = w_value_at(k + rho, read_t)
                value = field.sub(received[read_t][l3_off + rho], wv)
                when = max(read_t, wav)
            else:
                # The transmitted layer-4 part is causal(sum of w-taps).
                # Evaluate it from sources directly when they are all clean;
                # otherwise go through the helper values recovered in step 1
                # (sum of w values minus the dropped non-causal taps).
                ell = rho - t3
                acc = received[read_t][l4_off + ell]
                when = read_t
                causal = plan.layer4_causal[ell].taps
                if all(not burst.erased(read_t - tap.delay) for tap in causal):
                    for tap in causal:
                        acc = field.sub(
                            acc, field.mul(tap.coeff, src_val(read_t - tap.delay, tap.source_row))
                        )
                else:
                    for tap in plan.helper_w_rows[ell].taps:
                        wv, wav = w_value_at(k + tap.source_row, read_t - tap.delay)
                        acc = field.sub(acc, field.mul(tap.coeff, wv))
                        when = max(when, wav)
                    for tap in plan.layer4_dropped[ell].taps:
                        ts = read_t - tap.delay
                        acc = field.add(acc, field.mul(tap.coeff, src_val(ts, tap.source_row)))
                        when = max(when, ts)
                value = acc
            report.entries[(tau, rho)] = SymbolReport(True, when, value)
    return RegionEDecodeResult(report, helper_recoveries)

