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
from .code_model import StreamingCodeSpec, check_symbols, encode
from .musco import Region, classify

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
    ``(t, pos, eq, base, known)`` per received parity sub-symbol (t, pos)
    whose taps reach an unknown: ``eq`` is the packed row of the unknowns'
    columns (erased time index * n_source + row) from column ``base`` on,
    as :class:`~burstfec.algebra.IncrementalSolver` takes it, and ``known``
    lists the ``(delay, source row, w)`` taps that read a received source,
    whose values :func:`_solve` folds into the rhs.  The other parity
    sub-symbols carry no information about the unknowns, so the scan starts
    at the first erased time.
    """
    if not erased_times:
        return
    n_src = spec.n_source
    field = spec.field
    m = field.order_exponent
    # the bit offset of each erased time's first column in a packed row
    first_bit = {t: i * n_src * m for i, t in enumerate(erased_times)}
    # Per tap (delay, source row, w, coefficient in its row's lane): w is
    # the log of the coefficient, so every product with a known source is a
    # table lookup.  A GF(2) coefficient is 1 = 2^0.
    log = field.log if m > 1 else (0, 0)
    rows = [
        (n_src + r, [(tap.delay, tap.source_row, log[tap.coeff], tap.coeff << (tap.source_row * m))
                     for tap in prow.taps])
        for r, prow in enumerate(spec.parity_rows)
    ]
    memory = spec.memory
    n_erased = len(erased_times)
    low = 0
    for t in range(erased_times[0], horizon):
        if t in first_bit:
            continue
        # Rows start at the first erased time the taps can reach, so they
        # stay as wide as the memory however long the stream.
        while low < n_erased and erased_times[low] < t - memory:
            low += 1
        base = low * n_src
        base_bit = base * m
        for pos, taps in rows:
            eq = 0
            for delay, _, _, coeff in taps:
                bit = first_bit.get(t - delay)
                if bit is not None:
                    eq ^= coeff << (bit - base_bit)
            if eq:
                known = [
                    (delay, row, w)
                    for delay, row, w, _ in taps
                    if t - delay >= 0 and t - delay not in first_bit
                ]
                yield t, pos, eq, base, known


def _with_rhs(field, equations, received: Sequence, shift: int):
    """``(t, eq, base, rhs)`` per equation of ``equations`` (as
    :func:`_equations` yields them), every time in it moved ``shift`` steps
    later and the rhs read from ``received`` at the moved times: the parity
    sub-symbol less its known taps."""
    binary = field.order_exponent == 1
    if not binary:
        exp, log = field.exp, field.log
    for t, pos, eq, base, known in equations:
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
        yield t, eq, base, rhs


def _solve(field, equations, received: Sequence, n_unknowns: int) -> list:
    """Feed ``equations`` to one incremental solver, each rhs read from
    ``received``.

    Returns ``(recovery_time, value)`` per unknown column, ``(None, None)``
    when the equations never determine it.
    """
    solver = IncrementalSolver(field)
    recovered = [(None, None)] * n_unknowns
    for t, eq, base, rhs in _with_rhs(field, equations, received, 0):
        for col, value in solver.add_equation(eq, rhs, base):
            recovered[col] = (t, value)
    return recovered


def _combinations(field, equations: Sequence, n_unknowns: int):
    """GF(2): eliminate ``equations`` once, the rhs of the j-th being the unit
    vector e_j, bit j of an int.

    Elimination is linear in the rhs, so the solver hands back, in place of
    values, combinations of the equations' rhs values.  Returns
    ``(times, combinations, residuals)``: per unknown column its recovery
    time and combination, ``None`` and 0 when the equations never determine
    it, and per dependent equation the combination that must be 0 for the
    system to be consistent, each as :func:`_evaluate` reads it.
    """
    solver = IncrementalSolver(field)
    times = [None] * n_unknowns
    combinations = [0] * n_unknowns
    residuals = []
    for j, (t, _, eq, base, _) in enumerate(equations):
        try:
            fresh = solver.add_equation(eq, 1 << j, base)
        except InconsistentSystemError as exc:  # eq is in the span: e_j survives
            residuals.append(exc.rhs)
            continue
        for col, combo in fresh:
            times[col] = t
            combinations[col] = combo
    return times, combinations, residuals


def _evaluate(combinations, values: Sequence[int]) -> list[int]:
    """The value of each of :func:`_combinations`' ``combinations`` at the
    rhs ``values``."""
    packed = 0
    for j, value in enumerate(values):
        if value:
            packed |= 1 << j
    return [(combo & packed).bit_count() & 1 for combo in combinations]


# A trial checks that every dependent equation agrees with the others
# (rank 0), then per unknown column its deadline (rank 2 * col + 1) and its
# decoded value (rank 2 * col + 2).  A sweep reports the first failure by
# (start, length, rank).
_CONTRADICTION = 0


def _first_wrong_per_start(field, equations, n_unknowns, channel, src, memory: int, n_starts: int):
    """GF(2): one burst length's ``equations``, eliminated once into
    :func:`_combinations` and evaluated at the starts ``memory + shift``,
    ``shift`` < ``n_starts``, one start at a time.

    Returns ``(times, wrong)``: per unknown column its recovery time
    (``None`` if never determined), and the first failing dependent
    equation or decoded value as ``(shift, rank, rhs)`` for the lowest shift
    and, at it, the lowest rank, ``rhs`` being the contradicting value
    (``None`` for a wrong decoded value), or ``None`` if all check out.
    """
    times, combinations, residuals = _combinations(field, equations, n_unknowns)
    n_src = len(src[0])
    for shift in range(n_starts):
        values = [rhs for _, _, _, rhs in _with_rhs(field, equations, channel, shift)]
        contradiction = next((v for v in _evaluate(residuals, values) if v), 0)
        if contradiction:
            return times, (shift, _CONTRADICTION, contradiction)
        for col, value in enumerate(_evaluate(combinations, values)):
            if value != src[memory + shift + col // n_src][col % n_src]:
                return times, (shift, 2 * col + 2, None)
    return times, None


def _lane_columns(spec: StreamingCodeSpec, channel: Sequence) -> dict:
    """GF(2^8): each sub-symbol position of ``channel`` as one int over
    time, one byte per time step, keyed (position, 0), and each (source
    row, log coefficient) a tap of ``spec`` reads, scaled by one
    ``FieldSpec.scale`` translate."""
    field = spec.field
    positions = [bytes(position) for position in zip(*channel)]
    columns = {(pos, 0): int.from_bytes(column, "little") for pos, column in enumerate(positions)}
    for prow in spec.parity_rows:
        for tap in prow.taps:
            key = (tap.source_row, field.log[tap.coeff])
            if key not in columns:
                scaled = positions[tap.source_row].translate(field.scale[key[1]])
                columns[key] = int.from_bytes(scaled, "little")
    return columns


def _solve_lanes(field, equations, n_unknowns, columns, source, memory: int, n_starts: int):
    """GF(2^8): :func:`_first_wrong_per_start` with every start solved in
    the one elimination, start ``memory + shift`` in byte lane ``shift``.

    ``columns`` are :func:`_lane_columns`' ints over time, one byte per
    time step, and ``source[row]`` is the encoded source row read the same
    way.  Shifted down t bytes, a column holds time t + shift in lane
    ``shift``, so an equation's rhs is its parity column XOR each known
    tap's scaled source column, each shifted to its time, masked once to
    ``n_starts`` lanes.  A fresh column's value then holds its decoded
    value at each start, and a dependent equation refused for a nonzero
    reduced rhs is a contradiction.  The lowest nonzero byte of a refused
    rhs, or of a decoded value less the source, is its first failing start.
    """

    def first_lane(v: int) -> int:
        return ((v & -v).bit_length() - 1) >> 3

    mask = (1 << 8 * n_starts) - 1
    solver = IncrementalSolver(field)
    times = [None] * n_unknowns
    values = [0] * n_unknowns
    refused = []
    for t, pos, eq, base, known in equations:
        rhs = columns[pos, 0] >> 8 * t
        for delay, row, w in known:
            rhs ^= columns[row, w] >> 8 * (t - delay)
        try:
            fresh = solver.add_equation(eq, rhs & mask, base)
        except InconsistentSystemError as exc:
            refused.append(exc.rhs)
            continue
        for col, value in fresh:
            times[col] = t
            values[col] = value
    wrong = None
    if refused:
        shift = min(map(first_lane, refused))
        # the first dependent equation, in order, that fails at that start
        contradiction = next(c for v in refused if (c := v >> (8 * shift) & 0xFF))
        wrong = (shift, _CONTRADICTION, contradiction)
    n_src = len(source)
    for col, value in enumerate(values):
        diff = value ^ source[col % n_src] >> 8 * (memory + col // n_src) & mask
        if diff and (wrong is None or first_lane(diff) < wrong[0]):
            wrong = (first_lane(diff), 2 * col + 2, None)
    return times, wrong


def generic_decode(
    spec: StreamingCodeSpec,
    received: Sequence,
    pattern: ErasurePattern,
    horizon: int,
) -> DecodeReport:
    """Incremental elimination over the erased source sub-symbols.

    Equations arrive in time order; the recovery time of an unknown is the
    first step at which the received prefix determines it uniquely.  Raises
    ``ValueError`` on a horizon outside the stream, on a symbol present
    where ``pattern`` erases or missing where it does not, and on a
    received symbol of the wrong width or with a value outside the field.
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
    width = spec.n_source + spec.n_parity
    check_symbols([received[t] for t in clean], clean, width, spec.field.size, "received")
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


_BIT_1 = bytes(x >> 1 & 1 for x in range(256))  # a GF(2) source value from its hash's low byte


def _source_columns(n_source: int, horizon: int, field_size: int, seed: int) -> list[bytes]:
    """:func:`source_fill`'s stream as one byte string per source row, one
    byte per time step.

    One SWAR kernel hashes every (row, t) at once: each is a 64-bit lane of
    one int, lane ``row * horizon + t``.  A lane holds a 32-bit value, and
    the product with a 32-bit constant fits in it, so no step carries into
    the next lane; each right shift is masked back to the lane's own bits.
    Each value is then read off its lane's low byte.
    """
    if field_size not in (2, 256):
        raise ValueError(f"field size must be 2 or 256, got {field_size}")
    if n_source <= 0 or horizon <= 0:
        return [b""] * max(n_source, 0)
    lanes = n_source * horizon
    ramp = b"".join(t.to_bytes(8, "little") for t in range(horizon))
    offsets = b"".join(
        ((r * 7919 + seed * 104729 + 12345) & 0xFFFFFFFF).to_bytes(8, "little") * horizon
        for r in range(n_source)
    )
    low32 = int.from_bytes(b"\xff\xff\xff\xff\0\0\0\0" * lanes, "little")
    h = int.from_bytes(ramp * n_source, "little") * 1000003
    h = h + int.from_bytes(offsets, "little") & low32
    h ^= h >> 13 & low32
    h = h * 2654435761 & low32
    h ^= h >> 17 & low32
    raw = h.to_bytes(8 * lanes, "little")
    columns = [raw[8 * horizon * r : 8 * horizon * (r + 1) : 8] for r in range(n_source)]
    if field_size == 2:
        columns = [column.translate(_BIT_1) for column in columns]
    return columns


def source_fill(n_source: int, horizon: int, field_size: int, seed: int = 0) -> list[tuple]:
    """Deterministic pseudo-random source stream (no RNG state), one tuple of
    ``n_source`` values per time step t < ``horizon``.

    Row r's value at t comes from the 32-bit hash

        h = (t * 1000003 + r * 7919 + seed * 104729 + 12345) mod 2^32
        h ^= h >> 13;  h = h * 2654435761 mod 2^32;  h ^= h >> 17

    as its low byte on GF(2^8) (``field_size`` 256) and as its bit 1 on
    GF(2) (``field_size`` 2).  Any other ``field_size`` raises
    ``ValueError``.
    """
    columns = _source_columns(n_source, horizon, field_size, seed)
    if not columns:
        return [()] * max(horizon, 0)
    return list(zip(*columns))


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
    once, which gives every erased sub-symbol's recovery time; the trials
    of that length also check each decoded value against the encoded source
    and check that every dependent equation agrees with the others.  GF(2)
    records the elimination's recovery combinations and evaluates them one
    start at a time; GF(2^8) solves every start directly in the one
    elimination, one start per byte lane of the rhs.  Returns the first
    counterexample in trial order (start, then length, then column).
    Raises ``ValueError`` when ``window`` is below 1,
    :class:`MisdecodeError` on a wrong decoded value and
    :class:`InconsistentSystemError` on a contradicting equation, each for
    the first such trial in the same order.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if user.burst == 0:
        return VerifyResult(True, 0)
    memory = spec.memory
    n_src = spec.n_source
    field = spec.field
    horizon = memory + window + user.burst + user.delay + 1
    columns = _source_columns(n_src, horizon, field.size, seed)
    src = list(zip(*columns))
    channel = encode(spec, src, horizon)
    if field.order_exponent == 1:
        solve, received, source = _first_wrong_per_start, channel, src
    else:
        solve, received = _solve_lanes, _lane_columns(spec, channel)
        source = [int.from_bytes(column, "little") for column in columns]
    # Each length's equations are built and eliminated once, for the burst
    # at start ``memory``, and their rhs read at every later start.  That is
    # exact: every start is >= memory, so every tap of a received time
    # t >= start reaches t - delay >= 0, and the t - delay >= 0 filter and
    # the erased columns are the same at every start.  So are the row
    # operations, which never look at an rhs: only the rhs values move.
    # Equations arriving after the last deadline, start + length + delay,
    # cannot help meet it.  ``first`` is the first failing trial, as
    # (shift, length, rank, payload).  A recovery time moves with the start,
    # and so does its deadline, so a deadline missed at one start is missed
    # at every start: the first is at shift 0.  A longer burst comes first
    # only at an earlier start.
    first = None
    for length in range(1, user.burst + 1):
        n_starts = window if first is None else first[0]
        if n_starts == 0:
            break
        last = memory + length + user.delay
        equations = list(_equations(spec, range(memory, memory + length), last + 1))
        times, wrong = solve(field, equations, length * n_src, received, source, memory, n_starts)
        for col, when in enumerate(times):
            if when is None or when > memory + col // n_src + user.delay:
                late = (0, 2 * col + 1, when)
                wrong = late if wrong is None else min(wrong, late)
                break
        if wrong is not None:
            first = (wrong[0], length, *wrong[1:])
    if first is None:
        return VerifyResult(True, window * user.burst)
    shift, length, rank, payload = first
    start = memory + shift
    if rank == _CONTRADICTION:
        raise InconsistentSystemError(
            payload, f"contradictory equation at burst start {start}, length {length}"
        )
    col = (rank - 1) // 2
    t, row = start + col // n_src, col % n_src
    if rank % 2 == 0:
        raise MisdecodeError(f"decoder returned a wrong value at {(t, row)}: encoder bug")
    return VerifyResult(
        False,
        shift * user.burst + length,
        Counterexample(start, length, (t, row), t + user.delay, payload),
    )


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
