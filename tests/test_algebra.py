import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from burstfec.algebra import (
    GF2,
    GF256,
    FieldSpec,
    IncrementalSolver,
    InconsistentSystemError,
    _scale_lanes,
)


def test_gf2_add_is_xor_mul_is_and():
    for a in (0, 1):
        for b in (0, 1):
            assert GF2.add(a, b) == a ^ b
            assert GF2.mul(a, b) == a & b


def test_characteristic_two_self_inverse():
    assert GF2.add(1, 1) == 0
    assert GF2.add(1, 0) == 1
    assert GF256.add(0x53, 0x53) == 0x00


def test_mul_identity_and_zero():
    assert GF2.mul(1, 1) == 1
    for a in (0, 1, 0x53, 0xFF):
        assert GF256.mul(a, 0) == 0
        assert GF256.mul(a, 1) == a


def _poly_mul_schoolbook(a, b, poly, m):
    # independent oracle: polynomial product, then long division by poly
    prod = 0
    for i in range(m):
        if (b >> i) & 1:
            prod ^= a << i
    while prod.bit_length() > m:
        prod ^= poly << (prod.bit_length() - 1 - m)
    return prod


def test_gf256_x_times_x7_matches_schoolbook_reduction():
    got = GF256.mul(0x02, 0x80)  # x * x^7 = x^8, reduced
    assert got == _poly_mul_schoolbook(0x02, 0x80, 0x11D, 8)
    assert got == 0x11D ^ 0x100  # x^8 == poly minus the x^8 term


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_gf256_field_axioms(a, b, c):
    assert GF256.mul(a, b) == GF256.mul(b, a)
    assert GF256.mul(a, GF256.mul(b, c)) == GF256.mul(GF256.mul(a, b), c)
    assert GF256.mul(a, GF256.add(b, c)) == GF256.add(GF256.mul(a, b), GF256.mul(a, c))


def test_gf256_inverses():
    for a in range(1, 256):
        assert GF256.mul(a, GF256.inv(a)) == 1


@pytest.mark.parametrize("field", [GF256], ids=["gf256"])
def test_log_tables_match_reference_multiply(field):
    for a in range(field.size):
        for b in range(field.size):
            assert field.mul(a, b) == _poly_mul_schoolbook(a, b, 0x11D, 8), (a, b)
    for a in range(1, field.size):
        assert field.mul(a, field.inv(a)) == 1, a


def _gf2_poly_mod(a, b):
    while a and a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def test_reducible_polynomial_rejected():
    # no polynomial can be passed, so none can be reducible ...
    with pytest.raises(TypeError):
        FieldSpec(8, 0x100)  # x^8, obviously reducible
    with pytest.raises(ValueError):
        FieldSpec(4)  # the degree of 0x11D is 8, not 4
    # ... and the one GF(2^8) uses has no factor of degree 1..4
    for d in range(2, 1 << 5):
        assert _gf2_poly_mod(0x11D, d) != 0, hex(d)


def test_order_exponent_outside_a_byte_rejected():
    for m in (0, 9):
        with pytest.raises(ValueError, match="order exponent must be 1 or 8"):
            FieldSpec(m)


def test_order_exponent_other_than_1_or_8_rejected():
    for m in (2, 4, 7):
        with pytest.raises(ValueError, match="order exponent must be 1 or 8"):
            FieldSpec(m)


LANE_FIELDS = pytest.mark.parametrize("field", [GF256], ids=["gf256"])


@LANE_FIELDS
def test_scale_tables_equal_the_exp_log_definition(field):
    # built by chaining translate; entry for entry they are x -> 2^l * x
    assert len(field.scale) == field.size - 1
    for l, table in enumerate(field.scale):
        assert len(table) == 256
        want = bytes(field.exp[l + field.log[x]] if x else 0 for x in range(256))
        assert table == want, l


@LANE_FIELDS
def test_lane_scaling_equals_per_lane_mul(field):
    rng = random.Random(0x11D)
    for _ in range(40):
        lanes = [rng.choice((0, rng.randrange(field.size))) for _ in range(rng.randint(1, 40))]
        lanes[-1] = rng.randrange(1, field.size)  # the top lane sets the length
        v = int.from_bytes(bytes(lanes), "little")
        for l in range(field.size - 1):
            g_l = field.exp[l]
            got = _scale_lanes(v, field.scale[l]).to_bytes(len(lanes), "little")
            assert list(got) == [field.mul(g_l, x) for x in lanes], l


@LANE_FIELDS
def test_lane_packed_rhs_equals_one_solve_per_lane(field):
    # k right-hand sides packed as byte lanes go through one solver exactly
    # as k scalar solves would, contradictions included
    rng = random.Random(field.size * 7 + 0x11D)
    kinds = set()
    for trial in range(150):
        n, k = rng.randint(1, 8), rng.randint(2, 6)
        truths = [[rng.randrange(field.size) for _ in range(n)] for _ in range(k)]
        packed, scalars = IncrementalSolver(field), [IncrementalSolver(field) for _ in range(k)]
        for _ in range(rng.randint(1, n + 4)):
            support = rng.sample(range(n), rng.randint(1, min(n, 4)))
            row = {j: rng.randrange(1, field.size) for j in support}
            rhs = [0] * k
            for lane, truth in enumerate(truths):
                for j, c in row.items():
                    rhs[lane] ^= field.mul(c, truth[j])
            if trial % 4 == 0 and rng.random() < 0.3:
                rhs[rng.randrange(k)] ^= rng.randrange(1, field.size)
            want = []
            for solver, r in zip(scalars, rhs):
                try:
                    want.append(solver.add_equation(row, r))
                except InconsistentSystemError as exc:
                    want.append(exc.rhs)
            try:
                got = packed.add_equation(row, int.from_bytes(bytes(rhs), "little"))
            except InconsistentSystemError as exc:
                kinds.add("inconsistent")
                lanes = exc.rhs.to_bytes(k, "little")
                assert [w if isinstance(w, int) else 0 for w in want] == list(lanes)
                continue
            kinds.add("solved")
            assert all(isinstance(w, list) for w in want)
            for lane, fresh in enumerate(want):
                assert [(c, v.to_bytes(k, "little")[lane]) for c, v in got] == fresh
    assert kinds == {"inconsistent", "solved"}


def _solve(field, rows, n):
    """Feed dense (coeffs, rhs) rows to one solver: determined unknowns map
    to the value ``add_equation`` reported for them, the rest to None."""
    solver = IncrementalSolver(field)
    determined = {}
    for coeffs, rhs in rows:
        for col, value in solver.add_equation({j: c for j, c in enumerate(coeffs) if c}, rhs):
            assert col not in determined, "an unknown was reported twice"
            determined[col] = value
    return {j: determined.get(j) for j in range(n)}


def test_solve_back_substitution():
    # x + y = 1, y = 1 over GF(2)
    assert _solve(GF2, [((1, 1), 1), ((0, 1), 1)], 2) == {0: 0, 1: 1}


def test_solve_rank_deficiency():
    assert _solve(GF2, [((1, 1), 1)], 2) == {0: None, 1: None}


def test_solve_inconsistent_raises():
    with pytest.raises(InconsistentSystemError):
        _solve(GF2, [((1,), 0), ((1,), 1)], 1)


@pytest.mark.parametrize("field", [GF2, GF256], ids=["gf2", "gf256"])
def test_zero_coefficient_is_an_absent_column(field):
    c = field.size - 1
    for coeffs in ({0: 0, 1: c}, {1: c, 2: 0}):
        solver = IncrementalSolver(field)
        assert solver.add_equation(coeffs, field.mul(c, 1)) == [(1, 1)]


def _brute_force_determined(rows, n):
    """Exhaustively enumerate GF(2) assignments; an unknown is determined
    iff all satisfying assignments agree on it."""
    sols = []
    for bits in itertools.product((0, 1), repeat=n):
        if all(sum(c * x for c, x in zip(coeffs, bits)) % 2 == rhs for coeffs, rhs in rows):
            sols.append(bits)
    out = {}
    for j in range(n):
        vals = {s[j] for s in sols}
        out[j] = vals.pop() if len(vals) == 1 else None
    return out


def test_solve_matches_exhaustive_enumeration_on_random_systems():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(1, 8)
        n_rows = rng.randint(0, n + 3)
        truth = [rng.randint(0, 1) for _ in range(n)]
        rows = []
        for _ in range(n_rows):
            coeffs = tuple(rng.randint(0, 1) for _ in range(n))
            rhs = sum(c * x for c, x in zip(coeffs, truth)) % 2
            rows.append((coeffs, rhs))
        got = _solve(GF2, rows, n)
        want = _brute_force_determined(rows, n)
        assert got == want


def test_solve_full_rank_random_square_system():
    rng = random.Random(11)
    found = 0
    while found < 5:
        n = 6
        truth = [rng.randint(0, 1) for _ in range(n)]
        rows = []
        for _ in range(n):
            coeffs = tuple(rng.randint(0, 1) for _ in range(n))
            rows.append((coeffs, sum(c * x for c, x in zip(coeffs, truth)) % 2))
        got = _solve(GF2, rows, n)
        if all(v is not None for v in got.values()):
            found += 1
            assert [got[j] for j in range(n)] == truth
            # substituting back satisfies every row exactly
            for coeffs, rhs in rows:
                assert sum(c * got[j] for j, c in enumerate(coeffs)) % 2 == rhs


def _rescan(solver, seen):
    """The full-pivot rescan ``add_equation`` once ran after every equation:
    every singleton pivot row not reported before, in pivot order."""
    fresh = []
    for col, (row, rhs) in solver._pivots.items():
        single = row & (row - 1) == 0 if isinstance(row, int) else len(row) == 1
        if single and col not in seen:
            seen.add(col)
            fresh.append((col, rhs))
    return fresh


@pytest.mark.parametrize("field", [GF2, GF256], ids=["gf2", "gf256"])
def test_add_equation_reports_what_a_full_rescan_finds(field):
    rng = random.Random(field.size)
    kinds = set()
    for trial in range(300):
        n = rng.randint(1, 10)
        truth = [rng.randrange(field.size) for _ in range(n)]
        consistent = trial % 3 != 0
        solver, seen = IncrementalSolver(field), set()
        for _ in range(rng.randint(0, n + 3)):
            support = rng.sample(range(n), rng.randint(1, min(n, 4)))
            row = {j: rng.randrange(1, field.size) for j in support}
            rhs = 0
            for j, c in row.items():
                rhs ^= field.mul(c, truth[j])
            if not consistent and rng.random() < 0.3:
                rhs ^= rng.randrange(1, field.size)
            if field is GF2 and rng.random() < 0.5:
                row = sum(1 << j for j in row)  # the bitmask form
            try:
                got = solver.add_equation(row, rhs)
            except InconsistentSystemError:
                kinds.add("inconsistent")
                got = []
            assert got == _rescan(solver, seen)
        kinds.add("full rank" if len(seen) == n else "rank deficient")
    assert kinds == {"inconsistent", "full rank", "rank deficient"}


@pytest.mark.parametrize("field", [GF256], ids=["gf256"])
def test_add_equation_values_equal_the_planted_solution(field):
    # The rescan test above checks the solver against its own pivots; this
    # one checks its arithmetic: on consistent systems every reported value
    # must be the planted one, whatever the coefficients and elimination order.
    rng = random.Random(field.size * 31 + 0x11D)
    reported = 0
    for trial in range(300):
        n = rng.randint(1, 10)
        truth = [rng.randrange(field.size) for _ in range(n)]
        solver = IncrementalSolver(field)
        for _ in range(rng.randint(1, n + 4)):
            support = rng.sample(range(n), rng.randint(1, min(n, 5)))
            row = {j: rng.randrange(1, field.size) for j in support}
            rhs = 0
            for j, c in row.items():
                rhs ^= _poly_mul_schoolbook(c, truth[j], 0x11D, 8)
            for col, value in solver.add_equation(row, rhs):
                assert value == truth[col], (trial, col)
                reported += 1
    assert reported > 600
