import gc
import itertools
import weakref
from fractions import Fraction

import pytest

from burstfec.algebra import GF256
from burstfec.channel_sim import UserSpec, verify_deadlines
from burstfec.code_model import StreamingCodeSpec, spec_to_text
from burstfec.musco import (
    MulticastParams,
    NonIntegerAlphaError,
    Region,
    UnknownRegionError,
    capacity,
    classify,
    constructible,
    construct,
    construct_ia_sco,
    critical_delays,
    fold_spec,
    upper_bound_cu,
    upper_bound_pec,
)
from burstfec.sco import InfeasibleParamsError, single_user_capacity


def P(*args):
    return MulticastParams(*args)


# -- classification ------------------------------------------------------------


def test_classify_named_points():
    assert classify(P(1, 2, 2, 5)) is Region.A
    assert classify(P(1, 2, 2, 6)) is Region.A_PRIME
    assert classify(P(1, 2, 2, 4)) is Region.B
    assert classify(P(1, 4, 3, 5)) is Region.C
    assert classify(P(4, 5, 7, 10)) is Region.E
    assert classify(P(3, 5, 7, 9)) is Region.E
    assert classify(P(2, 3, 4, 4)) is Region.F_T2_EQ_B2
    assert classify(P(4, 4, 5, 6)) is Region.F_T1_EQ_B1
    assert classify(P(3, 4, 5, 6)) is Region.F_INTERIOR
    assert classify(P(2, 1, 3, 4)) is Region.INFEASIBLE
    assert classify(P(3, 4, 3, 3)) is Region.D
    # seam T2 = B1 + B2 belongs to the large-delay regime; the adjacent
    # region-(b) and region-(e) formulas agree there
    assert classify(P(2, 3, 4, 6)) is Region.B
    assert capacity(P(2, 3, 4, 6)).capacity == Fraction(1, 2)


def test_normalization_swaps_users():
    p = P(4, 4, 2, 3)
    assert (p.b1, p.t1, p.b2, p.t2) == (2, 3, 4, 4)
    assert p == P(2, 3, 4, 4) and hash(p) == hash(P(2, 3, 4, 4))
    assert classify(p) is Region.F_T2_EQ_B2
    # equal bursts keep the order given
    assert (P(2, 5, 2, 3).t1, P(2, 5, 2, 3).t2) == (5, 3)


def test_region_partition_and_inequalities():
    for b1 in range(1, 9):
        for t1 in range(1, 9):
            for b2 in range(b1, 9):
                for t2 in range(1, 9):
                    p = P(b1, t1, b2, t2)
                    r = classify(p)
                    feasible = t1 >= b1 and t2 >= b2
                    if not feasible:
                        assert r is Region.INFEASIBLE
                        continue
                    large = t1 >= b2 or t2 >= b1 + b2
                    if large:  # the large-delay capacity meets the tightened bound
                        assert capacity(p).capacity == upper_bound_cu(p), p
                    if r in (Region.A, Region.A_PRIME):
                        assert large and t2 >= p.alpha * t1 + b1
                    elif r is Region.B:
                        assert large and t1 + b1 < t2 < p.alpha * t1 + b1
                    elif r is Region.C:
                        assert large and t1 < t2 <= t1 + b1 and t1 >= b2
                    elif r is Region.D:
                        assert large and t2 <= t1
                    elif r is Region.E:
                        assert not large and t1 + b1 <= t2 <= b1 + b2 and t1 < b2
                    else:
                        assert not large and t2 < t1 + b1
                        # low delay with T1 = B1 forces B2 > T1 = B1
                        assert r is not Region.F_T1_EQ_B1 or b2 > b1


def _reference_region(b1, t1, b2, t2):
    """The region map in its Fraction form, alpha = B2/B1, with the users
    swapped by hand: the reference for the integer tests of classify()."""
    if b2 < b1:
        b1, t1, b2, t2 = b2, t2, b1, t1
    if t1 < b1 or t2 < b2:
        return Region.INFEASIBLE, False
    alpha = Fraction(b2, b1)
    whole = alpha.denominator == 1
    if t1 >= b2 or t2 >= b1 + b2:
        if t2 >= alpha * t1 + b1:
            ia_ok = whole and alpha > 1 and t2 >= alpha * t1 + t1
            return (Region.A_PRIME if ia_ok else Region.A), whole
        if t1 + b1 < t2:
            return Region.B, whole
        return (Region.C if t1 < t2 else Region.D), True
    if t2 >= t1 + b1:
        return Region.E, True
    if t1 == b1:
        return Region.F_T1_EQ_B1, True
    if t2 == b2:
        return Region.F_T2_EQ_B2, True
    return Region.F_INTERIOR, False


def test_integer_region_map_matches_fraction_reference():
    # every point in 1..12, so both orders of the users
    for pt in itertools.product(range(1, 13), repeat=4):
        p = P(*pt)
        assert (classify(p), constructible(p)) == _reference_region(*pt), pt


# -- capacity and bounds ---------------------------------------------------------


def test_capacity_named_points():
    assert capacity(P(1, 2, 2, 4)).capacity == Fraction(3, 5)
    assert capacity(P(1, 2, 2, 5)).capacity == Fraction(2, 3)
    assert capacity(P(2, 3, 4, 8)).capacity == Fraction(3, 5)
    assert capacity(P(4, 5, 7, 10)).capacity == Fraction(5, 11)
    assert capacity(P(3, 5, 7, 9)).capacity == Fraction(5, 11)
    assert capacity(P(4, 4, 5, 6)).capacity == Fraction(2, 5)
    assert capacity(P(2, 3, 4, 4)).capacity == Fraction(3, 8)
    # fourth large-delay case: serve user 2 only
    assert capacity(P(2, 6, 4, 5)).capacity == single_user_capacity(4, 5)
    # open interior
    res = capacity(P(3, 4, 5, 6))
    assert res.capacity is None and res.upper_bound is not None


def test_pec_bound_values_and_boundary_continuity():
    assert upper_bound_pec(P(1, 2, 2, 4)) == Fraction(3, 5)
    assert upper_bound_pec(P(4, 5, 7, 10)) == Fraction(6, 13)
    # the region-(e) formula is strictly tighter than the plain bound here
    assert capacity(P(4, 5, 7, 10)).capacity < upper_bound_pec(P(4, 5, 7, 10))
    # at T2 = T1 + B1 both branches agree
    p = P(2, 4, 3, 6)
    assert Fraction(p.t2 - p.b1, p.t2 - p.b1 + p.b2) == Fraction(p.t1, p.t1 + p.b2)


def test_cu_bound_cases():
    assert upper_bound_cu(P(1, 2, 2, 5)) == Fraction(2, 3)
    assert upper_bound_cu(P(1, 2, 2, 4)) == Fraction(3, 5)

    # min{C+, C1, C2}, where a user whose delay is below its burst has
    # capacity 0: so the bound is 0 at every infeasible point
    def single(b, t):
        return Fraction(t, t + b) if t >= b else 0

    for pt in itertools.product(range(1, 9), repeat=4):  # both user orders
        p = P(*pt)
        bound = min(upper_bound_pec(p), single(pt[0], pt[1]), single(pt[2], pt[3]))
        assert upper_bound_cu(p) == bound, pt
    assert upper_bound_cu(P(1, 1, 3, 2)) == 0 < upper_bound_pec(P(1, 1, 3, 2))


def test_bounds_dominate_capacity_everywhere():
    for b1 in range(1, 7):
        for t1 in range(b1, 7):
            for b2 in range(b1, 7):
                for t2 in range(b2, 7):
                    p = P(b1, t1, b2, t2)
                    cu = upper_bound_cu(p)
                    assert cu <= min(
                        single_user_capacity(p.b1, p.t1), single_user_capacity(p.b2, p.t2)
                    ), p
                    cap = capacity(p).capacity
                    if cap is None:
                        continue
                    assert cap <= cu, p
                    assert cap <= upper_bound_pec(p), p


def test_delay_slackness():
    # region (b): capacity constant in T1 at fixed (B1, B2, T2)
    vals = {
        capacity(P(1, t1, 2, 4)).capacity
        for t1 in range(1, 9)
        if classify(P(1, t1, 2, 4)) is Region.B
    }
    assert vals == {Fraction(3, 5)}
    # region (c): capacity constant in T2 at fixed (B1, T1, B2)
    vals = {
        capacity(P(1, 4, 3, t2)).capacity
        for t2 in range(3, 9)
        if classify(P(1, 4, 3, t2)) is Region.C
    }
    assert vals == {Fraction(4, 7)}


def test_region_e_contour_invariance():
    for b1 in range(1, 8):
        for t1 in range(b1, 8):
            for b2 in range(b1, 8):
                for t2 in range(b2, 8):
                    p, q = P(b1, t1, b2, t2), P(b1, t1, b2 + 1, t2 + 1)
                    if classify(p) is Region.E and classify(q) is Region.E:
                        assert capacity(p).capacity == capacity(q).capacity


# -- constructions ---------------------------------------------------------------


def _passes_both_users(spec, p, window=None):
    w = window or 4 * max(spec.memory, 1)
    return (
        verify_deadlines(spec, UserSpec(p.b1, p.t1), w).passed
        and verify_deadlines(spec, UserSpec(p.b2, p.t2), w).passed
    )


def test_de_sco_rate_and_deadlines():
    p = P(2, 3, 4, 8)
    spec = construct(p)
    assert spec.rate == Fraction(3, 5)
    assert _passes_both_users(spec, p)


def test_de_sco_alpha_one_degenerates_cleanly():
    p = P(2, 3, 2, 5)
    spec = construct(p)
    assert spec.rate == Fraction(3, 5)
    assert _passes_both_users(spec, p)


def test_non_integer_alpha_refused():
    with pytest.raises(NonIntegerAlphaError):
        construct(P(2, 4, 3, 9))
    with pytest.raises(NonIntegerAlphaError):
        construct(P(2, 5, 3, 8))  # region b with alpha = 3/2


def test_ia_sco_condition_and_deadlines():
    p = P(1, 2, 2, 6)
    spec = construct_ia_sco(p)
    assert spec.rate == Fraction(2, 3)
    assert _passes_both_users(spec, p)
    with pytest.raises(InfeasibleParamsError):
        construct_ia_sco(P(1, 2, 2, 5))  # below (alpha+1) T1


def test_source_expansion_plan():
    # region (b) drops T1 to T1~ = (B1/B2)(T2 - B1); a fractional T1~ = m/n
    # is met on a base refined by n
    assert critical_delays(P(1, 2, 2, 4)) == (Fraction(3, 2), 4)
    # a whole T1~ needs no expansion, and is an int
    for args, delays in [((1, 3, 2, 5), (2, 5)), ((1, 3, 2, 7), (3, 7))]:
        t1, t2 = critical_delays(P(*args))
        assert (t1, t2) == delays and type(t1) is int


def test_critical_delays_per_region():
    cases = [
        ((1, 2, 2, 5), Region.A, (2, 5)),  # T2* = alpha T1 + B1
        ((2, 3, 3, 7), Region.A, (3, Fraction(13, 2))),  # fractional alpha
        ((1, 2, 2, 6), Region.A_PRIME, (2, 5)),
        ((1, 2, 2, 4), Region.B, (Fraction(3, 2), 4)),  # T1* = T1~
        ((1, 4, 3, 5), Region.C, (4, 4)),  # both users at T1
        ((2, 6, 4, 5), Region.D, (5, 5)),  # both users at T2
        ((4, 5, 7, 10), Region.E, (5, 10)),
        ((4, 4, 5, 6), Region.F_T1_EQ_B1, (4, 6)),
        ((2, 1, 3, 4), Region.INFEASIBLE, (1, 4)),
    ]
    for args, region, delays in cases:
        p = P(*args)
        assert classify(p) is region and critical_delays(p) == delays, args
        assert critical_delays(p)[0] <= p.t1 and critical_delays(p)[1] <= p.t2


def test_region_b_folded_code():
    p = P(1, 2, 2, 4)
    spec = construct(p)
    assert spec.n_source == 6 and spec.n_parity == 4
    assert spec.rate == Fraction(3, 5)
    assert _passes_both_users(spec, p)
    # the expanded user-1 deadline folds to ceil(T1~) <= T1
    assert verify_deadlines(spec, UserSpec(1, 2), 4 * spec.memory).passed


def test_fold_spec_row_mapping():
    inner = construct(P(2, 3, 4, 8))
    folded = fold_spec(inner, 2, "fold-test")
    assert folded.n_source == 6 and folded.n_parity == 4
    assert folded.rate == inner.rate


def test_regions_c_and_d_reduce_to_single_user():
    p = P(1, 4, 3, 5)
    spec = construct(p)
    assert spec.rate == Fraction(4, 7)
    assert _passes_both_users(spec, p)
    p = P(2, 6, 4, 5)
    spec = construct(p)
    assert spec.rate == Fraction(5, 9)
    assert _passes_both_users(spec, p)


def test_region_e_cases_and_corner():
    for args in [(4, 5, 7, 10), (3, 5, 7, 9)]:
        p = P(*args)
        spec = construct(p)
        assert spec.rate == Fraction(5, 11)
        assert _passes_both_users(spec, p)
    # T2 = B2 corner of region (e): layer 4 is bare repetition
    p = P(1, 2, 5, 5)
    spec = construct(p)
    assert spec.rate == capacity(p).capacity == Fraction(2, 5)
    assert _passes_both_users(spec, p)


def test_region_f_edges():
    p = P(4, 4, 5, 6)
    spec = construct(p)
    assert spec.rate == Fraction(2, 5)
    assert _passes_both_users(spec, p)
    p = P(2, 3, 4, 4)
    spec = construct(p)
    assert spec.rate == Fraction(3, 8)
    assert _passes_both_users(spec, p)


def test_gf256_realizations_pass_both_users():
    # construct(p, GF256) lays every block code over GF(2^8), even where the
    # automatic build finds a binary one: same rate, and both deadlines met
    built = differ = 0
    for pt in itertools.product(range(1, 9), repeat=4):
        p = P(*pt)
        if pt[0] > pt[2] or not constructible(p):
            continue
        spec = construct(p, GF256)
        assert spec.field == GF256 and spec.rate == capacity(p).capacity, p
        assert _passes_both_users(spec, p), p
        built += 1
        differ += spec_to_text(spec) != spec_to_text(construct(p))
    assert (built, differ) == (720, 670)


def test_equal_bursts_never_low_delay():
    # with B2 = B1 feasibility forces T1 >= B2, i.e. the large-delay regime,
    # and the f-edge bound degenerates to 1/2 by substitution
    p = P(3, 3, 3, 4)
    assert classify(p) is Region.C
    b1 = t1 = b2 = 3
    for t2 in range(4, 7):
        assert Fraction(t2 - b1, 2 * (t2 - b1) + (b2 - t1)) == Fraction(1, 2)


def test_construct_refuses_open_interior():
    with pytest.raises(UnknownRegionError):
        construct(P(3, 4, 5, 6))
    assert not constructible(P(3, 4, 5, 6))


def test_construct_dispatch_rate_equals_capacity_spot():
    for args in [(1, 2, 2, 5), (1, 2, 2, 4), (1, 4, 3, 5), (2, 6, 4, 5),
                 (4, 5, 7, 10), (4, 4, 5, 6), (2, 3, 4, 4), (2, 2, 4, 6)]:
        p = P(*args)
        assert construct(p).rate == capacity(p).capacity, p


def test_dropping_any_parity_row_fails_a_user():
    # the converse of the check above: a code whose rate meets capacity has
    # no spare parity row, so the oracle fails some user once any one is gone
    drops = 0
    for pt in itertools.product(range(1, 7), repeat=4):
        p = P(*pt)
        if pt[0] > pt[2] or not constructible(p):
            continue
        spec = construct(p)
        window = 4 * max(spec.memory, 1)
        for i in range(spec.n_parity):
            rows = spec.parity_rows[:i] + spec.parity_rows[i + 1:]
            weaker = StreamingCodeSpec(spec.field, spec.n_source, rows)
            assert not _passes_both_users(weaker, p, window), (pt, i)
            drops += 1
    assert drops == 846


def test_construct_keeps_no_spec_alive():
    # construct() is no memo: two calls give equal specs, and a spec lives
    # only as long as its caller holds it, even after a grid of builds.
    p = P(2, 3, 4, 8)
    first, second = construct(p), construct(p)
    assert first == second and spec_to_text(first) == spec_to_text(second)
    refs = [weakref.ref(first)]
    del first, second
    for pt in itertools.product(range(1, 9), repeat=4):
        q = P(*pt)
        if q.b1 <= q.b2 and constructible(q):
            refs.append(weakref.ref(construct(q)))
    assert len(refs) > 700
    gc.collect()
    assert [r for r in refs if r() is not None] == []
