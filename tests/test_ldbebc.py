import itertools
from collections import Counter

import pytest

from burstfec import ldbebc, musco
from burstfec.algebra import GF2, GF256
from burstfec.code_model import Tap, make_row
from burstfec.ldbebc import (
    BlockCodeSpec,
    ConstructionError,
    construct_ldbebc,
    verify_ldbebc,
)


def test_2_3_block_matches_worked_example_and_passes_all_starts():
    spec = construct_ldbebc(2, 3)
    assert spec.parity_defs == (((0, 1), (2, 1)), ((1, 1), (2, 1)))
    assert verify_ldbebc(spec).ok  # all 5 burst starts, wrap-around included


def test_repetition_block_passes_trivially():
    spec = construct_ldbebc(4, 4)
    assert spec.parity_defs == (((0, 1),), ((1, 1),), ((2, 1),), ((3, 1),))
    assert verify_ldbebc(spec).ok


def test_worked_examples_reproduced():
    assert construct_ldbebc(1, 2).parity_defs == (((0, 1), (1, 1)),)
    assert construct_ldbebc(4, 5).parity_defs == tuple(
        ((j, 1), (4, 1)) for j in range(4)
    )
    assert construct_ldbebc(3, 5).parity_defs == (
        ((0, 1), (3, 1)),
        ((1, 1), (4, 1)),
        ((2, 1), (3, 1), (4, 1)),
    )


def test_zeroed_coefficient_is_caught():
    good = construct_ldbebc(2, 3)
    sabotaged = BlockCodeSpec(3, 2, GF2, (((0, 1),), good.parity_defs[1]), "mutant")
    report = verify_ldbebc(sabotaged)
    assert not report.ok
    # the missing s2 tap breaks some burst covering s2
    assert any(i == 2 for _, i in report.violations)


def test_every_pair_up_to_8_constructs_and_verifies():
    for T in range(1, 9):
        for B in range(1, T + 1):
            spec = construct_ldbebc(B, T)
            assert verify_ldbebc(spec).ok, (B, T)
            assert (spec.rate.numerator, spec.rate.denominator) == (
                T // __import__("math").gcd(T, T + B),
                (T + B) // __import__("math").gcd(T, T + B),
            )


def test_escalation_to_gf256_when_binary_fails():
    spec = construct_ldbebc(2, 6)
    assert spec.field == GF256
    assert verify_ldbebc(spec).ok
    with pytest.raises(ConstructionError):
        construct_ldbebc(2, 6, GF2)


def test_construction_error_raised_on_every_call():
    # a failure is not cached: each repeat call searches and raises again
    for _ in range(3):
        with pytest.raises(ConstructionError):
            construct_ldbebc(2, 6, GF2)


def test_each_block_candidate_verified_once_across_the_grid(monkeypatch):
    # Building every constructible point <= 8 reuses each (B, T) block code,
    # so no candidate pattern of any (B, T) is verified twice.
    counts = Counter()
    real = ldbebc.verify_ldbebc

    def counting(spec):
        counts[(spec.B, spec.T, spec.pattern)] += 1
        return real(spec)

    monkeypatch.setattr(ldbebc, "verify_ldbebc", counting)
    construct_ldbebc.cache_clear()
    built = 0
    for pt in itertools.product(range(1, 9), repeat=4):
        p = musco.MulticastParams(*pt)
        if p.b1 <= p.b2 and musco.constructible(p):
            musco.construct(p)
            built += 1
    assert built > 0 and counts
    assert max(counts.values()) == 1, counts.most_common(3)


def test_infeasible_parameters_rejected():
    with pytest.raises(ConstructionError):
        construct_ldbebc(3, 2)


def _reference_rows(block):
    # the diagonal layout written out on its own: parity j at time i
    # combines s_l[i - (T + j - l)] for every tap l of parity j
    rows = []
    for j, taps in enumerate(block.parity_defs):
        rows.append(make_row((Tap(l, block.T + j - l, c) for l, c in taps), block.field))
    return tuple(rows)


def test_block_rows_match_the_diagonal_layout():
    pairs = [(B, T) for T in range(1, 15) for B in range(1, T + 1)]
    blocks = [construct_ldbebc(B, T) for B, T in pairs]
    blocks += [construct_ldbebc(B, T, GF256) for B, T in pairs]
    # _block_pair lifts a binary block to GF(2^8) when its partner needs it
    escalating = next((B, T) for B, T in pairs if construct_ldbebc(B, T).field == GF256)
    lifted = [
        musco._block_pair([(B, T), escalating], None)[0]
        for B, T in pairs
        if construct_ldbebc(B, T).field == GF2
    ]
    assert lifted and all(bl.field == GF256 and bl.pattern.endswith("+gf256") for bl in lifted)
    for block in blocks + lifted:
        assert block.rows == _reference_rows(block), (block.B, block.T, block.pattern)
        assert block.rows is block.rows


def test_points_on_one_block_share_its_rows():
    first = musco.construct(musco.MulticastParams(1, 5, 3, 5))
    second = musco.construct(musco.MulticastParams(2, 5, 3, 5))
    assert musco.classify(musco.MulticastParams(1, 5, 3, 5)) is musco.Region.D
    assert first.parity_rows is second.parity_rows
