import itertools
import random
import re
from dataclasses import dataclass

import pytest

from burstfec import channel_sim
from burstfec.algebra import GF2, GF256, IncrementalSolver, InconsistentSystemError
from burstfec.channel_sim import (
    ERASED,
    Counterexample,
    MisdecodeError,
    Periodic,
    SingleBurst,
    UserSpec,
    VerifyResult,
    apply_channel,
    generic_decode,
    make_periodic,
    region_schedule,
    run_pec,
    source_fill,
    verify_deadlines,
)
from burstfec.code_model import StreamingCodeSpec, Tap, encode, make_row
from burstfec.musco import MulticastParams, construct, construct_ia_sco, constructible
from burstfec.sco import ScoParams, construct_sco


def test_single_burst_pattern():
    p = SingleBurst(5, 2)
    assert [t for t in range(10) if p.erased(t)] == [5, 6]
    assert SingleBurst(0, 1).erased(0)
    assert not SingleBurst(0, 1).erased(1)


def test_periodic_pattern_and_reveals():
    p = Periodic(period=5, burst=2)
    assert [t for t in range(12) if p.erased(t)] == [0, 1, 5, 6, 10, 11]
    r = Periodic(period=5, burst=3, revealed=(1,))
    assert [t for t in range(6) if r.erased(t)] == [0, 2, 5]
    assert r.is_revealed(1) and r.is_revealed(6)


def test_periodic_rejects_revealed_offsets_it_cannot_use():
    for revealed in [(7,), (2,), (-1,), (0, 0)]:
        with pytest.raises(ValueError, match="revealed"):
            Periodic(period=5, burst=2, revealed=revealed)
    assert Periodic(period=5, burst=2, revealed=(1, 0)).is_revealed(5)


def test_apply_channel():
    stream = [(t,) for t in range(8)]
    assert apply_channel(stream, SingleBurst(5, 2))[5] is ERASED
    assert apply_channel(stream, SingleBurst(5, 2))[4] == (4,)
    assert apply_channel(stream, SingleBurst(0, 0)) == stream
    assert all(x is ERASED for x in apply_channel(stream, SingleBurst(0, 8)))


def test_no_erasures_systematic_recovery():
    spec = construct_sco(ScoParams(1, 2))
    src = source_fill(2, 8, 2)
    rec = apply_channel(encode(spec, src, 8), SingleBurst(0, 0))
    report = generic_decode(spec, rec, SingleBurst(0, 0), 8)
    for t in range(8):
        for row in range(2):
            assert report.entries[(t, row)].recovery_time == t


def test_sco_1_2_single_erasure_trace():
    # erase time 5 of the (1,2) code: row 1 returns at 6, row 0 at 7
    spec = construct_sco(ScoParams(1, 2))
    src = source_fill(2, 12, 2)
    pattern = SingleBurst(5, 1)
    report = generic_decode(spec, apply_channel(encode(spec, src, 12), pattern), pattern, 12)
    assert report.recovery_time(5, 1) == 6
    assert report.recovery_time(5, 0) == 7
    assert report.entries[(5, 0)].value == src[5][0]
    assert report.entries[(5, 1)].value == src[5][1]


@pytest.mark.parametrize("horizon", [11, -1])
def test_generic_decode_rejects_a_horizon_outside_the_stream(horizon):
    # one past a 10-step stream, and one below 1
    spec = construct_sco(ScoParams(2, 3))
    rec = apply_channel(encode(spec, source_fill(3, 10, 2), 10), SingleBurst(4, 2))
    with pytest.raises(ValueError, match=f"^horizon {horizon} outside"):
        generic_decode(spec, rec, SingleBurst(4, 2), horizon)


def _received_at_1224(field):
    spec = construct(MulticastParams(1, 2, 2, 4), field)
    pattern = SingleBurst(2, 1)
    src = source_fill(spec.n_source, 10, field.size)
    return spec, apply_channel(encode(spec, src, 10), pattern), pattern


def test_generic_decode_rejects_a_received_value_outside_gf2():
    spec, rec, pattern = _received_at_1224(GF2)
    rec[4] = rec[4][:1] + (2,) + rec[4][2:]
    with pytest.raises(ValueError, match=re.escape("received value 2 at (4, 1) outside [0, 2)")):
        generic_decode(spec, rec, pattern, 10)


def test_generic_decode_rejects_a_received_symbol_of_the_wrong_width():
    spec, rec, pattern = _received_at_1224(GF2)
    width = spec.n_source + spec.n_parity
    rec[4] = rec[4][:-1]
    with pytest.raises(ValueError, match=f"time 4 has {width - 1} positions, not {width}"):
        generic_decode(spec, rec, pattern, 10)


@pytest.mark.parametrize("value", [300, -1])
def test_generic_decode_rejects_a_received_value_outside_gf256(value):
    spec, rec, pattern = _received_at_1224(GF256)
    rec[4] = rec[4][:1] + (value,) + rec[4][2:]
    with pytest.raises(ValueError, match=re.escape(f"received value {value} at (4, 1) outside [0, 256)")):
        generic_decode(spec, rec, pattern, 10)


def test_report_csv_shape():
    spec = construct_sco(ScoParams(1, 2))
    src = source_fill(2, 6, 2)
    pattern = SingleBurst(2, 1)
    report = generic_decode(spec, apply_channel(encode(spec, src, 6), pattern), pattern, 6)
    rows = report.to_csv_rows()
    assert (2, 0, 1, 4) in rows and (3, 0, 0, 3) in rows


def _source_fill_reference(n_source, horizon, field_size, seed=0):
    """The per-element hash loop that ``source_fill``'s SWAR kernel replaced."""
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


@pytest.mark.parametrize("field_size", [2, 256])
def test_source_fill_is_bit_identical_to_the_per_element_hash(field_size):
    for n_source, horizon, seed in itertools.product(
        (0, 1, 2, 5, 35), (0, 1, 2, 17, 2000), (0, 1, 99, -7, 2**40)
    ):
        got = source_fill(n_source, horizon, field_size, seed)
        assert got == _source_fill_reference(n_source, horizon, field_size, seed), (
            n_source, horizon, seed)
    assert source_fill(0, 3, field_size) == [(), (), ()]
    assert source_fill(2, 0, field_size) == source_fill(2, -4, field_size) == []


@pytest.mark.parametrize("field_size", [0, 1, 3, 4, 255, 257])
def test_source_fill_rejects_a_field_size_other_than_2_or_256(field_size):
    with pytest.raises(ValueError, match=f"^field size must be 2 or 256, got {field_size}$"):
        source_fill(2, 5, field_size)


def test_verify_vacuous_for_zero_burst():
    spec = construct_sco(ScoParams(2, 3))
    assert verify_deadlines(spec, UserSpec(0, 3), 10).passed


def test_user_spec_rejects_a_negative_burst():
    with pytest.raises(ValueError, match="burst"):
        UserSpec(-1, 3)


def test_user_spec_rejects_a_negative_delay():
    with pytest.raises(ValueError, match="delay"):
        UserSpec(2, -1)


def _sabotaged_sco_2_3():
    good = construct_sco(ScoParams(2, 3))
    rows = (good.parity_rows[0], make_row([Tap(1, 3, 1)]))  # drop the s2 tap
    return StreamingCodeSpec(GF2, 3, rows, "sabotaged")


def _gf256_2626():
    # p0[i] = s0[i-6] + s2[i-4] + s3[i-3] + s4[i-2] + s5[i-1] and
    # p1[i] = s1[i-6] + s2[i-5] + 2 s3[i-4] + 4 s4[i-3] + 8 s5[i-2],
    # sent as sub-symbols 6 and 7
    return construct(MulticastParams(2, 6, 2, 6), GF256)


def _sabotaged_gf256_2626():
    good = _gf256_2626()
    rows = (good.parity_rows[0], make_row(good.parity_rows[1].taps[:-1], GF256))  # drop 8 s5[i-2]
    return StreamingCodeSpec(GF256, good.n_source, rows, "sabotaged")


def test_verify_catches_sabotage():
    res = verify_deadlines(_sabotaged_sco_2_3(), UserSpec(2, 3), 20)
    assert not res.passed
    assert res.counterexample is not None


# -- window-local sweeps against whole-prefix decoding ------------------------


def _first_late(report, start, length, delay, trials, src=None):
    """The sweep verdict of one trial's full decode report, or None when
    every erased sub-symbol is back by its deadline (and, given ``src``,
    decoded to its true value)."""
    for (t, row), rep in report.erased_entries():
        if rep.recovery_time is None or rep.recovery_time > t + delay:
            ce = Counterexample(start, length, (t, row), t + delay, rep.recovery_time)
            return VerifyResult(False, trials, ce)
        if src is not None and rep.value != src[t][row]:
            raise AssertionError(f"decoder returned a wrong value at {(t, row)}: encoder bug")
    return None


def _reference_verify_deadlines(spec, user, window, seed=0):
    """Whole-prefix sweep: erase the encoded stream and decode it from t=0."""
    if user.burst == 0:
        return VerifyResult(True, 0)
    horizon = spec.memory + window + user.burst + user.delay + 1
    src = source_fill(spec.n_source, horizon, spec.field.size, seed)
    channel = encode(spec, src, horizon)
    trials = 0
    for start in range(spec.memory, spec.memory + window):
        for length in range(1, user.burst + 1):
            trials += 1
            pattern = SingleBurst(start, length)
            h = min(horizon, start + length + user.delay + 1)
            report = generic_decode(spec, apply_channel(channel, pattern), pattern, h)
            verdict = _first_late(report, start, length, user.delay, trials, src)
            if verdict is not None:
                return verdict
    return VerifyResult(True, trials)


def _multicast_cases(point, build=construct):
    p = MulticastParams(*point)
    spec = build(p)
    window = 4 * max(spec.memory, 1)
    return [(spec, UserSpec(p.b1, p.t1), window), (spec, UserSpec(p.b2, p.t2), window)]


def _user2_one_longer(point):
    """User 2's sweep with a burst one longer than the code is built for: it
    fails, so the comparison covers counterexamples, not only passes."""
    p = MulticastParams(*point)
    spec = construct(p)
    return [(spec, UserSpec(p.b2 + 1, p.t2), 4 * max(spec.memory, 1))]


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param([(construct_sco(ScoParams(2, 3)), UserSpec(2, 3), 20)], id="sco-2-3"),
        pytest.param([(construct_sco(ScoParams(2, 3)), UserSpec(3, 3), 20)], id="overlong-3-3"),
        pytest.param([(_sabotaged_sco_2_3(), UserSpec(2, 3), 20)], id="sabotaged"),
        pytest.param(_multicast_cases((1, 2, 2, 4)), id="region-b-1224"),
        pytest.param(_multicast_cases((2, 6, 2, 6)), id="gf256-2626"),
        pytest.param(_multicast_cases((1, 4, 2, 8)), id="gf256-region-b-1428"),
        pytest.param(_multicast_cases((2, 6, 7, 7)), id="gf256-f-t2b2-2677"),
        pytest.param(_multicast_cases((1, 2, 2, 6), construct_ia_sco), id="ia-sco-1226"),
        pytest.param(_user2_one_longer((2, 6, 2, 6)), id="gf256-2626-user2-longer"),
        pytest.param(_user2_one_longer((1, 4, 2, 8)), id="gf256-region-b-1428-user2-longer"),
        pytest.param([(_sabotaged_gf256_2626(), UserSpec(2, 6), 24)], id="gf256-sabotaged"),
        pytest.param(
            [
                (_gf256_2626(), user, window)
                for user in (UserSpec(2, 6), UserSpec(3, 6))
                for window in (1, 3)
            ],
            id="gf256-2626-windows-1-3",
        ),
    ],
)
def test_window_local_sweep_matches_whole_prefix_decode(cases):
    for spec, user, window in cases:
        assert verify_deadlines(spec, user, window) == _reference_verify_deadlines(spec, user, window)


def test_lane_sweep_matches_whole_prefix_decode_on_dropped_gf256_rows():
    # Every GF(2^8) build <= 6 with one parity row dropped, both users, at
    # windows 1, 3 and 4 * memory: most of these sweeps fail.  A build that
    # repeats across points is checked once.  The reference runs once, over
    # the widest window; a narrower window runs the same trials in the same
    # order on a prefix of the same stream, so its verdict follows.
    seen = set()
    failed = 0
    for point in itertools.product(range(1, 7), repeat=4):
        p = MulticastParams(*point)
        if point[0] > point[2] or not constructible(p):
            continue
        good = construct(p, GF256)
        for drop in range(good.n_parity):
            rows = good.parity_rows[:drop] + good.parity_rows[drop + 1 :]
            spec = StreamingCodeSpec(GF256, good.n_source, rows, "dropped")
            for user in (UserSpec(p.b1, p.t1), UserSpec(p.b2, p.t2)):
                if (spec.n_source, rows, user) in seen:
                    continue
                seen.add((spec.n_source, rows, user))
                widest = 4 * max(spec.memory, 1)
                reference = _reference_verify_deadlines(spec, user, widest)
                ce = reference.counterexample
                for window in (1, 3, widest):
                    expected = reference
                    if ce is None or ce.burst_start >= spec.memory + window:
                        expected = VerifyResult(True, window * user.burst)
                    got = verify_deadlines(spec, user, window)
                    assert got == expected, (point, drop, user, window)
                    failed += not got.passed
    assert (len(seen), failed) == (925, 2232)


@pytest.mark.parametrize("window", [1, 3, 24])
def test_verify_builds_each_lengths_equations_once(monkeypatch, window):
    built = []
    real_equations = channel_sim._equations

    def counted(spec, erased_times, horizon):
        built.append(tuple(erased_times))
        return real_equations(spec, erased_times, horizon)

    monkeypatch.setattr(channel_sim, "_equations", counted)
    spec = construct(MulticastParams(1, 2, 3, 6))
    res = verify_deadlines(spec, UserSpec(3, 6), window)
    assert res.passed and res.trials == 3 * window
    m = spec.memory
    assert built == [tuple(range(m, m + length)) for length in (1, 2, 3)]


def test_verify_eliminates_each_length_once(monkeypatch):
    # one elimination per burst length: the solver sees the same equations
    # whatever the number of starts the sweep replays them at
    calls = []
    real_add = IncrementalSolver.add_equation

    def counted(self, coeffs, rhs, base=0):
        calls.append(rhs)
        return real_add(self, coeffs, rhs, base)

    monkeypatch.setattr(IncrementalSolver, "add_equation", counted)
    spec = construct(MulticastParams(1, 2, 3, 6))
    counts = []
    for window in (1, 3, 24):
        calls.clear()
        assert verify_deadlines(spec, UserSpec(3, 6), window).passed
        counts.append(len(calls))
    assert counts[0] > 0 and counts == [counts[0]] * 3


def test_verify_encodes_once_per_call(monkeypatch):
    # every trial reads one encoded stream: the tests that flip or replace
    # it patch channel_sim.encode, and the benchmark's tracer counts it there
    horizons = []
    real_encode = channel_sim.encode

    def counted(spec, src, horizon):
        horizons.append(horizon)
        return real_encode(spec, src, horizon)

    monkeypatch.setattr(channel_sim, "encode", counted)
    for spec, user, passed in [
        (construct_sco(ScoParams(2, 3)), UserSpec(2, 3), True),
        (_sabotaged_sco_2_3(), UserSpec(2, 3), False),
        (_gf256_2626(), UserSpec(2, 6), True),
        (_sabotaged_gf256_2626(), UserSpec(2, 6), False),
    ]:
        for window in (1, 24):
            horizons.clear()
            assert verify_deadlines(spec, user, window).passed == passed
            assert horizons == [spec.memory + window + user.burst + user.delay + 1]


def _flip_parity(monkeypatch, t, pos):
    """Make the sweep encode a stream whose sub-symbol ``pos`` at time ``t``
    is flipped."""
    real_encode = channel_sim.encode

    def flipped(spec, src, horizon):
        channel = real_encode(spec, src, horizon)
        sym = list(channel[t])
        sym[pos] ^= 1
        channel[t] = tuple(sym)
        return channel

    monkeypatch.setattr(channel_sim, "encode", flipped)


def test_verify_consistency_check_fires_on_a_redundant_parity(monkeypatch):
    # sco(2,3) sends p0[i] = s0[i-3] + s2[i-1] and p1[i] = s1[i-3] + s2[i-2]
    # (sub-symbols 3 and 4).  For bursts of length 1 from start 3 = memory,
    # p0[4] recovers s2[3] and p1[5] reads s2[3] again: p1[5] is a dependent
    # equation at start 3, and no equation reads it at a later start.  So
    # flipping it changes no decoded value, and only the check that every
    # dependent equation agrees with the rest can see it.
    spec = construct_sco(ScoParams(2, 3))
    user = UserSpec(1, 3)
    assert verify_deadlines(spec, user, 4).passed
    _flip_parity(monkeypatch, 5, 4)
    with pytest.raises(InconsistentSystemError, match="burst start 3, length 1"):
        verify_deadlines(spec, user, 4)


@pytest.mark.parametrize(
    "flips, start, rhs",
    [
        # p0[7] reads s5[6] and so does p1[8], scaled by 8, for the burst at
        # 6 = memory: the flip leaves 8 * 1 on the dependent equation
        ([(7, 6)], 6, 8),
        # p0[8] reads s4[6], as p1[9] does scaled by 4.  Both dependent
        # equations fail at start 6, and the earlier one's rhs is reported
        ([(8, 6), (7, 6)], 6, 8),
        # p0 has no tap at delay 5, so p0[11] reads no symbol of a burst at
        # 6.  From start 7 it reads s2[7], as p1[12] does: only a later
        # start sees the two disagree, before any value decoded from them
        ([(11, 6)], 7, 1),
    ],
)
def test_verify_consistency_check_fires_on_gf256(monkeypatch, flips, start, rhs):
    spec = _gf256_2626()
    user = UserSpec(1, 6)
    assert verify_deadlines(spec, user, 4).passed
    for flip in flips:
        _flip_parity(monkeypatch, *flip)
    message = f"^contradictory equation at burst start {start}, length 1$"
    with pytest.raises(InconsistentSystemError, match=message) as exc:
        verify_deadlines(spec, user, 4)
    assert exc.value.rhs == rhs


def _encode_other_source(monkeypatch):
    """Make the sweep decode a stream encoded from other source data than
    the one it compares against: every deadline is met, the values are
    wrong."""
    real_encode = channel_sim.encode

    def other_source(spec, src, horizon):
        return real_encode(spec, source_fill(spec.n_source, horizon, spec.field.size, 99), horizon)

    monkeypatch.setattr(channel_sim, "encode", other_source)


def test_verify_value_check_fires_on_a_wrong_stream(monkeypatch):
    spec = construct_sco(ScoParams(2, 3))
    assert verify_deadlines(spec, UserSpec(2, 3), 20).passed
    _encode_other_source(monkeypatch)
    with pytest.raises(MisdecodeError, match="wrong value"):
        verify_deadlines(spec, UserSpec(2, 3), 20)


def _wrong_value_at(symbol):
    return f"^{re.escape(f'decoder returned a wrong value at {symbol}: encoder bug')}$"


def test_verify_value_check_fires_on_gf256(monkeypatch):
    spec = _gf256_2626()
    assert verify_deadlines(spec, UserSpec(2, 6), 24).passed
    _encode_other_source(monkeypatch)
    with pytest.raises(MisdecodeError, match=_wrong_value_at((6, 0))):
        verify_deadlines(spec, UserSpec(2, 6), 24)


def test_verify_value_check_fires_at_a_later_start_on_gf256(monkeypatch):
    # p0 reads s0 only at delay 6, so a burst of length 1 at 8 recovers
    # s0[8] from p0[14] alone, and the bursts at 6 and 7 never read p0[14]
    _flip_parity(monkeypatch, 14, 6)
    with pytest.raises(MisdecodeError, match=_wrong_value_at((8, 0))):
        verify_deadlines(_gf256_2626(), UserSpec(1, 6), 4)


def test_verify_checks_a_trials_columns_in_order_on_gf256(monkeypatch):
    # Without 8 s5[i-2] the burst of length 2 at 6 = memory misses the
    # deadline of s5[6], its column 5.  It reads p0[11] for s2[7], which the
    # burst of length 1 at 6 does not; flipped, it makes column 1, s1[6],
    # wrong in that same trial, and column 1 is checked first.
    spec, user = _sabotaged_gf256_2626(), UserSpec(2, 6)
    ce = verify_deadlines(spec, user, 24).counterexample
    assert (ce.burst_start, ce.burst_length, ce.symbol) == (6, 2, (6, 5))
    _flip_parity(monkeypatch, 11, 6)
    with pytest.raises(MisdecodeError, match=_wrong_value_at((6, 1))):
        verify_deadlines(spec, user, 24)


def test_bursts_at_the_stream_start_decode_on_time():
    # verify_deadlines starts its bursts at the memory; a burst before it
    # meets taps that reach back past time 0 (zero there).  Every
    # constructible point <= 6, both users, every start in [0, memory).
    trials = 0
    for b1, t1, b2, t2 in itertools.product(range(1, 7), repeat=4):
        p = MulticastParams(b1, t1, b2, t2)
        if b1 > b2 or not constructible(p):
            continue
        spec = construct(p)
        memory = spec.memory
        for burst_len, delay in ((p.b1, p.t1), (p.b2, p.t2)):
            horizon = memory + burst_len + delay
            src = source_fill(spec.n_source, horizon, spec.field.size)
            channel = encode(spec, src, horizon)
            for start in range(memory):
                for length in range(1, burst_len + 1):
                    burst = SingleBurst(start, length)
                    report = generic_decode(
                        spec, apply_channel(channel, burst), burst, start + length + delay + 1
                    )
                    for (t, row), rep in report.erased_entries():
                        where = (p, delay, start, length, t, row)
                        assert rep.recovery_time is not None, where
                        assert rep.recovery_time <= t + delay, where
                        assert rep.value == src[t][row], where
                    trials += 1
    assert trials > 6000


# -- decoder/oracle equivalence ------------------------------------------------


@dataclass(frozen=True)
class SetPattern:
    times: frozenset

    def erased(self, t: int) -> bool:
        return t in self.times


def _oracle_determined_by_time(spec, received, erased_times, horizon):
    """All consistent source streams must agree: enumerate assignments of the
    erased sub-symbols, filtering by the parity equations seen so far."""
    unknowns = [(t, r) for t in sorted(erased_times) for r in range(spec.n_source)]
    key = {u: i for i, u in enumerate(unknowns)}
    k = len(unknowns)
    sols = list(range(1 << k))

    def known(t, row, assign):
        if t < 0:
            return 0
        if t in erased_times:
            return (assign >> key[(t, row)]) & 1
        return received[t][row]

    out = []
    determined = {}
    for t in range(horizon):
        if t not in erased_times:
            eqs = []
            for r, prow in enumerate(spec.parity_rows):
                eqs.append((prow, received[t][spec.n_source + r]))
            sols = [
                a
                for a in sols
                if all(
                    sum(known(t - tap.delay, tap.source_row, a) for tap in prow.taps) % 2 == rhs
                    for prow, rhs in eqs
                )
            ]
        for u, i in key.items():
            if u in determined:
                continue
            vals = {(a >> i) & 1 for a in sols}
            if len(vals) == 1:
                determined[u] = (t, vals.pop())
        out.append(dict(determined))
    return out


def _random_instance(rng):
    n_src = rng.randint(1, 3)
    horizon = rng.randint(6, 12)
    n_par = rng.randint(1, 3)
    rows = []
    for _ in range(n_par):
        taps = {
            (rng.randrange(n_src), rng.randint(0, 4))
            for _ in range(rng.randint(1, 3))
        }
        rows.append(make_row([Tap(r, d, 1) for r, d in taps]))
    spec = StreamingCodeSpec(GF2, n_src, tuple(rows))
    n_erase = rng.randint(1, min(4, horizon))
    erased = frozenset(rng.sample(range(horizon), n_erase))
    src = [[rng.randint(0, 1) for _ in range(n_src)] for _ in range(horizon)]
    return spec, src, erased, horizon


@pytest.mark.parametrize("seed", [1, 2])
def test_decoder_matches_brute_force_oracle(seed):
    rng = random.Random(seed)
    for _ in range(40):
        spec, src, erased, horizon = _random_instance(rng)
        pattern = SetPattern(erased)
        received = apply_channel(encode(spec, src, horizon), pattern)
        report = generic_decode(spec, received, pattern, horizon)
        oracle = _oracle_determined_by_time(spec, received, erased, horizon)
        for t in range(horizon):
            got = {
                u: rep.value
                for u, rep in report.entries.items()
                if rep.erased and rep.recovery_time is not None and rep.recovery_time <= t
            }
            want = {u: v for u, (tt, v) in oracle[t].items()}
            assert got == want, (t, got, want)
        # soundness against ground truth
        for (t, r), rep in report.entries.items():
            if rep.erased and rep.value is not None:
                assert rep.value == src[t][r]


# -- periodic-erasure-channel schedules ---------------------------------------


def test_make_periodic_variants():
    p = make_periodic("single_user", (2, 3))
    assert (p.period, p.burst) == (5, 2)
    mp = MulticastParams(1, 2, 2, 4)
    p = make_periodic("multicast_caseA", mp)
    assert (p.period, p.burst) == (5, 2)
    p = make_periodic("region_e", MulticastParams(4, 5, 7, 10))
    assert (p.period, p.burst, p.revealed) == (12, 7, (2,))
    p = make_periodic("region_f_T2B2", MulticastParams(2, 3, 4, 4))
    assert (p.period, p.burst) == (7, 4)
    with pytest.raises(ValueError):
        make_periodic("nope", mp)
    with pytest.raises(ValueError):
        make_periodic("multicast_caseA", MulticastParams(2, 3, 4, 4))


def test_region_schedule_fits_only_its_region():
    # (1, 2, 2, 4) is a region-(b) point: its converse counts on case A
    b_point = MulticastParams(1, 2, 2, 4)
    assert region_schedule(b_point) == "multicast_caseA"
    with pytest.raises(ValueError, match="^variant region_e does not fit region b$"):
        make_periodic("region_e", b_point)
    with pytest.raises(ValueError, match="does not fit region f"):
        make_periodic("region_f1", MulticastParams(3, 4, 5, 6))
    assert region_schedule(MulticastParams(1, 2, 1, 3)) == "multicast_caseB"
    for pt in [(4, 5, 7, 10), (4, 4, 5, 6), (2, 3, 4, 4), (4, 4, 2, 3)]:
        p = MulticastParams(*pt)
        assert make_periodic(region_schedule(p), p).burst == p.b2
    with pytest.raises(ValueError, match="region f has no counting schedule"):
        region_schedule(MulticastParams(3, 4, 5, 6))


@pytest.mark.parametrize("point", [(2, 6, 7, 8), (5, 8, 5, 8)])
def test_gf256_run_pec_rows_stay_as_wide_and_as_few_at_any_length(monkeypatch, point):
    # A long GF(2^8) decode walks only the unresolved pivot rows, so its cost
    # per period holds only while those rows stay as few and as narrow as
    # the code makes them: the peaks at 300 periods are those at 75 (281 and
    # 150 bits, 9 and 8 rows at these two points).
    peaks = []

    class Recording(IncrementalSolver):
        def __init__(self, field):
            super().__init__(field)
            self.widest = self.unresolved = 0
            peaks.append(self)

        def add_equation(self, coeffs, rhs, base=0):
            fresh = super().add_equation(coeffs, rhs, base)
            # a pivot row is a singleton, 1, or unresolved
            rows = [self._pivots[c][0] for c in self._unresolved]
            self.widest = max(self.widest, 1, *(row.bit_length() for row in rows))
            self.unresolved = max(self.unresolved, len(rows))
            return fresh

    monkeypatch.setattr(channel_sim, "IncrementalSolver", Recording)
    p = MulticastParams(*point)
    spec = construct(p, GF256)
    pattern = make_periodic(region_schedule(p), p)
    for periods in (75, 300):
        run_pec(spec, pattern, periods)
    short, long = peaks
    assert (long.widest, long.unresolved) == (short.widest, short.unresolved) != (1, 0)


def test_single_user_pec_schedule():
    spec = construct_sco(ScoParams(2, 3))
    res = run_pec(spec, make_periodic("single_user", (2, 3)), periods=4)
    for s in res.summaries:
        assert (s.erased, s.recovered) == (2, 2)
        assert (s.unerased_counted, s.counted_recovered) == (3, 5)
    # every erased symbol comes back before its own period ends
    for t, rec in res.schedule():
        assert rec is not None and rec <= (t // 5 + 1) * 5 - 1


def test_multicast_caseA_pec_recovers_by_period_end():
    from burstfec.musco import construct

    mp = MulticastParams(1, 2, 2, 4)
    spec = construct(mp)
    res = run_pec(spec, make_periodic("multicast_caseA", mp), periods=4)
    c = res.pattern.period
    for t, rec in res.schedule():
        assert rec is not None and rec <= (t // c + 1) * c - 1


def test_region_f_t1b1_user2_trace():
    # burst of 5 just before i: the two deepest sub-symbols come back at
    # delay exactly T2 = 6 via the shifted diagonal row, the rest at T1 = 4
    from burstfec.musco import construct

    mp = MulticastParams(4, 4, 5, 6)
    spec = construct(mp)
    src = source_fill(spec.n_source, 40, 2)
    pattern = SingleBurst(12, 5)
    report = generic_decode(spec, apply_channel(encode(spec, src, 40), pattern), pattern, 40)
    assert report.recovery_time(12, 0) == 18  # s0[i-5] exactly at i+1, delay T2
    assert report.recovery_time(12, 1) <= 18  # s1[i-5] by i+1
    for t in range(13, 17):
        assert report.symbol_recovery_time(t) == t + 4


def test_ia_sco_decode_traces():
    from burstfec.musco import MulticastParams as MP, construct_ia_sco

    spec = construct_ia_sco(MP(1, 2, 2, 6))
    src = source_fill(spec.n_source, 40, 2)
    chan = encode(spec, src, 40)
    # user 1: a single erasure at i-1 is fully back by i+1
    pattern = SingleBurst(11, 1)
    report = generic_decode(spec, apply_channel(chan, pattern), pattern, 40)
    assert report.symbol_recovery_time(11) == 13
    # user 2: a double erasure is back within delay 6
    pattern = SingleBurst(11, 2)
    report = generic_decode(spec, apply_channel(chan, pattern), pattern, 40)
    assert report.symbol_recovery_time(11) <= 17
    assert report.symbol_recovery_time(12) <= 18


@pytest.mark.parametrize("window", [0, -3])
def test_verify_deadlines_rejects_empty_window(window):
    with pytest.raises(ValueError, match="window must be >= 1"):
        verify_deadlines(construct_sco(ScoParams(2, 3)), UserSpec(2, 3), window)

