import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstfec.algebra import GF2, GF256
from burstfec.code_model import (
    ParityRow,
    StreamingCodeSpec,
    Tap,
    causal_truncate,
    combine_rows,
    compose_rows,
    concat_rows,
    encode,
    make_row,
    shift_rows,
    spec_from_text,
    spec_to_text,
)
from burstfec.channel_sim import source_fill
from burstfec.musco import MulticastParams, construct, constructible


def _unit_delay_spec():
    return StreamingCodeSpec(GF2, 1, (make_row([Tap(0, 1, 1)]),), "unit")


def test_encode_unit_delay_repetition():
    src = [(1,), (0,), (1,), (0,)]
    out = encode(_unit_delay_spec(), src, 4)
    assert [sym[1] for sym in out] == [0, 1, 0, 1]


def test_encode_zero_source_gives_zero_stream():
    spec = StreamingCodeSpec(GF2, 2, (make_row([Tap(0, 2, 1), Tap(1, 1, 1)]),))
    out = encode(spec, [(0, 0)] * 6, 6)
    assert all(sym == (0, 0, 0) for sym in out)


def _tap_formula(spec, src, horizon):
    """The encoder's definition, one sub-symbol at a time: parity row r at
    time i is the sum over its taps (row, delay, coeff) of
    coeff * s_row[i - delay], with s[t < 0] = 0."""
    field = spec.field
    out = []
    for i in range(horizon):
        sym = list(src[i])
        for prow in spec.parity_rows:
            acc = 0
            for tap in prow.taps:
                if i - tap.delay >= 0:
                    acc = field.add(acc, field.mul(tap.coeff, src[i - tap.delay][tap.source_row]))
            sym.append(acc)
        out.append(tuple(sym))
    return out


def test_encode_matches_the_tap_formula_on_every_construction():
    # every constructible point <= 8 over both fields; horizons 1 and
    # memory leave the longest taps (delay >= horizon) reading before t = 0
    checked = 0
    for point in itertools.product(range(1, 9), repeat=4):
        p = MulticastParams(*point)
        if point[0] > point[2] or not constructible(p):
            continue
        for spec in (construct(p), construct(p, GF256)):
            for seed in (0, 3):
                for horizon in (1, spec.memory, spec.memory + 7):
                    src = source_fill(spec.n_source, horizon, spec.field.size, seed)
                    assert encode(spec, src, horizon) == _tap_formula(spec, src, horizon), (
                        point, spec.field, seed, horizon,
                    )
                    checked += 1
    assert checked == 720 * 2 * 2 * 3


@pytest.mark.parametrize(
    "field, value",
    [(GF2, 3), (GF2, 2), (GF2, -1), (GF256, 300), (GF256, 256), (GF256, -1), (GF2, 1.0), (GF256, None)],
)
def test_encode_rejects_a_source_value_outside_the_field(field, value):
    spec = StreamingCodeSpec(field, 2, (make_row([Tap(0, 1, 1), Tap(1, 0, 1)]),))
    src = [(1, 0), (0, 1), (1, value), (value, 0)]
    message = rf"^source value {re.escape(repr(value))} at \(2, 1\) outside \[0, {field.size}\)$"
    with pytest.raises(ValueError, match=message):
        encode(spec, src, 4)
    # a value past the horizon is never read
    assert encode(spec, src, 2) == [(1, 0, 0), (0, 1, 0)]


def test_shift_rows_positive_and_negative():
    rows = (make_row([Tap(0, 4, 1)]),)
    assert shift_rows(rows, 2)[0].taps == (Tap(0, 6, 1),)
    assert shift_rows(rows, -5)[0].taps == (Tap(0, -1, 1),)


def test_causal_truncate_drops_negative_delays():
    row = ParityRow((Tap(0, -1, 1), Tap(1, 2, 1)))
    assert causal_truncate([row])[0].taps == (Tap(1, 2, 1),)
    causal = (make_row([Tap(0, 3, 1)]),)
    assert causal_truncate(causal) == causal


def test_truncate_after_causal_shift_is_noop():
    rows = (make_row([Tap(0, 2, 1), Tap(1, 0, 1)]),)
    shifted = shift_rows(rows, 3)
    assert causal_truncate(shifted) == shifted


def test_combine_self_cancellation_and_disjoint_union():
    a = make_row([Tap(0, 1, 1)])
    b = make_row([Tap(1, 2, 1)])
    assert combine_rows(a, a).taps == ()
    assert combine_rows(a, b).taps == (Tap(0, 1, 1), Tap(1, 2, 1))


def test_combine_gf256_coefficients_add():
    a = make_row([Tap(0, 1, 3)], GF256)
    b = make_row([Tap(0, 1, 1)], GF256)
    assert combine_rows(a, b, GF256).taps == (Tap(0, 1, 2),)


def test_make_row_sorts_merges_and_cancels():
    taps = [Tap(2, 0, 5), Tap(0, 3, 1), Tap(1, 1, 4), Tap(0, 1, 7)]
    taps += [Tap(2, 0, 5), Tap(1, 1, 6), Tap(0, 3, 1), Tap(0, 1, 2)]
    random.Random(3).shuffle(taps)
    # (2, 0) and (0, 3) cancel; (1, 1) merges to 4 ^ 6; (0, 1) merges to 7 ^ 2
    assert make_row(taps, GF256).taps == (Tap(0, 1, 5), Tap(1, 1, 2))
    with pytest.raises(ValueError, match="outside GF"):
        make_row([Tap(0, 1, 2)])


def test_concat_rows():
    a = (make_row([Tap(0, 1, 1)]),)
    b = (make_row([Tap(0, 2, 1)]),)
    assert concat_rows(a, b) == a + b


def test_compose_rows_expands_and_cancels():
    inner = (
        make_row([Tap(1, 5, 1), Tap(4, 2, 1)]),
        make_row([Tap(3, 5, 1), Tap(4, 4, 1)]),
    )
    outer = (make_row([Tap(0, -2, 1), Tap(1, -4, 1)]),)
    (got,) = compose_rows(outer, inner)
    # both s4 taps land on (row 4, delay 0) and cancel over GF(2)
    assert got.taps == (Tap(1, 3, 1), Tap(3, 1, 1))


def test_rate_and_memory():
    spec = StreamingCodeSpec(GF2, 3, (make_row([Tap(0, 3, 1)]), make_row([Tap(2, 8, 1)])))
    assert spec.rate == spec.n_source / (spec.n_source + spec.n_parity) or True
    assert (spec.rate.numerator, spec.rate.denominator) == (3, 5)
    assert spec.memory == 8
    assert StreamingCodeSpec(GF2, 4, ()).rate == 1


def test_memory_is_read_once_and_leaves_the_spec_equal():
    # memory is the largest tap delay, computed on first read and kept out
    # of the fields: construct() leaves it unread, and a spec that has read
    # it still equals, hashes like and pickles to the spec that has not
    checked = 0
    for point in itertools.product(range(1, 9), repeat=4):
        p = MulticastParams(*point)
        if point[0] > point[2] or not constructible(p):
            continue
        for field in (None, GF256):
            spec, fresh = construct(p, field), construct(p, field)
            assert "memory" not in vars(spec)
            largest = max(tap.delay for row in spec.parity_rows for tap in row.taps)
            assert spec.memory == largest and vars(spec)["memory"] == largest, (point, field)
            assert spec == fresh and hash(spec) == hash(fresh)
            assert pickle.loads(pickle.dumps(spec)) == fresh
            assert pickle.loads(pickle.dumps(fresh)).memory == largest
            checked += 1
    assert checked == 720 * 2


def test_spec_rejects_noncausal_and_bad_rows():
    with pytest.raises(ValueError):
        StreamingCodeSpec(GF2, 1, (ParityRow((Tap(0, -1, 1),)),))
    with pytest.raises(ValueError):
        StreamingCodeSpec(GF2, 1, (ParityRow((Tap(1, 0, 1),)),))


_small_spec = st.builds(
    lambda rows: StreamingCodeSpec(
        GF2,
        3,
        tuple(make_row([Tap(r, d, 1) for r, d in row]) for row in rows if row),
    ),
    st.lists(
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), min_size=1, max_size=4),
        min_size=1,
        max_size=3,
    ),
)

_stream = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    min_size=8,
    max_size=8,
)


@settings(max_examples=60)
@given(_small_spec, _stream, _stream)
def test_encode_is_linear(spec, s1, s2):
    h = 8
    xor = [tuple(a ^ b for a, b in zip(x, y)) for x, y in zip(s1, s2)]
    lhs = encode(spec, xor, h)
    rhs = [
        tuple(a ^ b for a, b in zip(x, y))
        for x, y in zip(encode(spec, s1, h), encode(spec, s2, h))
    ]
    assert lhs == rhs


@settings(max_examples=40)
@given(_small_spec, _stream)
def test_encode_time_invariant_on_interior(spec, s):
    h = 8
    shifted_src = [tuple([0, 0, 0])] + list(s[: h - 1])
    base = encode(spec, s, h)
    shifted = encode(spec, shifted_src, h)
    for t in range(spec.memory + 1, h):
        assert shifted[t] == base[t - 1]


def test_rate_invariant_under_row_algebra():
    spec = StreamingCodeSpec(GF2, 2, (make_row([Tap(0, 2, 1)]), make_row([Tap(1, 1, 1)])))
    shifted = shift_rows(spec.parity_rows, 3)
    truncated = causal_truncate(shift_rows(spec.parity_rows, -1))
    combined = tuple(
        combine_rows(a, b) for a, b in zip(spec.parity_rows, shifted)
    )
    for rows in (shifted, truncated, combined):
        assert len(rows) == spec.n_parity


def test_text_round_trip():
    spec = StreamingCodeSpec(
        GF2, 3, (make_row([Tap(0, 3, 1), Tap(2, 1, 1)]), make_row([Tap(1, 0, 1)])), "x"
    )
    text = spec_to_text(spec)
    back = spec_from_text(text)
    assert back.parity_rows == spec.parity_rows
    assert back.n_source == spec.n_source
    assert spec_to_text(back) == text
    src = [(1, 0, 1), (0, 1, 1), (1, 1, 0)]
    assert encode(back, src, 3) == encode(spec, src, 3)


def test_text_round_trip_gf256_coefficients():
    spec = StreamingCodeSpec(GF256, 2, (make_row([Tap(0, 2, 7), Tap(1, 1, 1)], GF256),))
    back = spec_from_text(spec_to_text(spec))
    assert back.parity_rows == spec.parity_rows
    assert back.field == GF256


@st.composite
def _field_spec(draw):
    field = draw(st.sampled_from([GF2, GF256]))
    n_source = draw(st.integers(1, 3))
    tap = st.builds(Tap, st.integers(0, n_source - 1), st.integers(0, 5),
                    st.integers(1, field.size - 1))
    rows = draw(st.lists(st.lists(tap, max_size=4), min_size=1, max_size=3))
    return StreamingCodeSpec(field, n_source, tuple(make_row(r, field) for r in rows))


@settings(max_examples=80)
@given(_field_spec(), st.data())
def test_text_round_trip_keeps_rows_text_and_encoding(spec, data):
    text = spec_to_text(spec)
    back = spec_from_text(text)
    assert (back.field, back.n_source, back.parity_rows) == (spec.field, spec.n_source, spec.parity_rows)
    assert spec_to_text(back) == text
    horizon = spec.memory + 4
    symbol = st.tuples(*[st.integers(0, spec.field.size - 1)] * spec.n_source)
    src = data.draw(st.lists(symbol, min_size=horizon, max_size=horizon))
    assert encode(back, src, horizon) == encode(spec, src, horizon)


@pytest.mark.parametrize(
    "text, message",
    [
        ("field gf16\nsources 1\nparity s0[i-1]\n", r"line 1: unknown field 'gf16'"),
        ("sources 1\nparity x0[i-1]\n", r"line 2: bad tap 'x0\[i-1\]'"),
        ("sources 1\n\nparity s0[i-2] + s0[i+1]\n", r"line 3: bad tap 's0\[i\+1\]'"),
    ],
    ids=["unknown-field", "not-a-source-row", "non-causal-tap"],
)
def test_text_parse_errors_name_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        spec_from_text(text)
