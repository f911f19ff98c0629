import random
from fractions import Fraction

import pytest

from burstfec.algebra import GF2, GF256
from burstfec.channel_sim import UserSpec, verify_deadlines
from burstfec.code_model import StreamingCodeSpec, Tap, make_row
from burstfec.ldbebc import (
    BlockCodeSpec,
    _vandermonde_defs,
    candidate_patterns,
    construct_ldbebc,
    verify_ldbebc,
)
from burstfec.sco import (
    InfeasibleParamsError,
    ScoParams,
    construct_sco,
    single_user_capacity,
)


def test_capacity_formula():
    assert single_user_capacity(2, 3) == Fraction(3, 5)
    assert single_user_capacity(1, 2) == Fraction(2, 3)
    assert single_user_capacity(3, 2) == 0
    for b in range(1, 6):
        assert single_user_capacity(b, b) == Fraction(1, 2)


def test_1_2_code_taps():
    spec = construct_sco(ScoParams(1, 2))
    assert spec.parity_rows == (make_row([Tap(0, 2, 1), Tap(1, 1, 1)]),)


def test_2_3_code_taps():
    spec = construct_sco(ScoParams(2, 3))
    assert spec.parity_rows == (
        make_row([Tap(0, 3, 1), Tap(2, 1, 1)]),
        make_row([Tap(1, 3, 1), Tap(2, 2, 1)]),
    )


def _interleaved(B, T, a):
    # the vertically interleaved (aB, aT) stream, as construct_ia_sco lays it
    block = construct_ldbebc(B, T)
    return StreamingCodeSpec(block.field, T, block.diagonal_rows(a))


def test_interleaved_1_2_by_2_gives_2_4_guarantee():
    spec = _interleaved(1, 2, 2)
    assert spec.parity_rows == (make_row([Tap(0, 4, 1), Tap(1, 2, 1)]),)
    assert spec.memory == 2 * 2
    assert verify_deadlines(spec, UserSpec(2, 4), 24).passed


def test_rate_equals_capacity():
    for T in range(1, 9):
        for B in range(1, T + 1):
            assert construct_sco(ScoParams(B, T)).rate == single_user_capacity(B, T)


def test_infeasible_params():
    with pytest.raises(InfeasibleParamsError):
        ScoParams(3, 2)


def test_overlong_burst_fails_verification():
    spec = construct_sco(ScoParams(2, 3))
    res = verify_deadlines(spec, UserSpec(3, 3), 20)
    assert not res.passed
    assert res.counterexample.burst_length == 3


def test_deadline_sweep_small_pairs():
    # the exhaustive (B,T) <= 8 sweep lives in the acceptance suite; spot
    # check a few pairs here so unit runs stay quick
    for B, T in [(1, 1), (1, 4), (2, 3), (3, 5), (2, 4)]:
        spec = construct_sco(ScoParams(B, T))
        assert verify_deadlines(spec, UserSpec(B, T), 4 * (T + B)).passed, (B, T)


def test_interleaved_variants_meet_scaled_guarantees():
    for B, T, a in [(1, 2, 2), (2, 3, 2), (1, 3, 3)]:
        spec = _interleaved(B, T, a)
        assert spec.memory == T * a
        assert verify_deadlines(spec, UserSpec(a * B, a * T), 4 * (a * (T + B))).passed, (B, T, a)


def test_block_and_stream_verdicts_agree():
    # Diagonal interleaving (Martinian and Sundberg, IEEE Trans. IT 2004): a
    # (T, B) block code meets its per-symbol deadlines under every cyclic
    # burst exactly when its interleaved stream meets delay T under every
    # burst of length <= B.  Checked on passing and failing blocks alike.
    rng = random.Random(12)
    checked = failing = 0
    for T in range(1, 9):
        for B in range(1, T + 1):
            blocks = [BlockCodeSpec(T, B, GF2, defs, name) for name, defs in candidate_patterns(B, T)]
            blocks += [
                BlockCodeSpec(T, B, GF256, _vandermonde_defs(B, T, salt), f"vandermonde-{salt}")
                for salt in (1, 2)
            ]
            for _ in range(3):  # p_j = s_j + a random subset of the tail
                defs = tuple(
                    ((j, 1),) + tuple((l, 1) for l in range(B, T) if rng.random() < 0.5)
                    for j in range(B)
                )
                blocks.append(BlockCodeSpec(T, B, GF2, defs, "random"))
            for block in blocks:
                stream = StreamingCodeSpec(block.field, T, block.rows)
                block_ok = verify_ldbebc(block).ok
                stream_ok = verify_deadlines(stream, UserSpec(B, T), 4 * stream.memory).passed
                assert block_ok == stream_ok, (B, T, block.pattern, block.parity_defs)
                checked += 1
                failing += not block_ok
    assert checked > 200 and 0 < failing < checked
