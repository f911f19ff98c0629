"""Acceptance gate: one test per shipping criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict each criterion prints.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from burstfec.algebra import GF256
from burstfec.channel_sim import (
    SingleBurst,
    UserSpec,
    apply_channel,
    generic_decode,
    make_periodic,
    run_pec,
    source_fill,
    verify_deadlines,
)
from burstfec.cli import main as cli_main
from burstfec.code_model import encode, spec_to_text
from burstfec.musco import (
    MulticastParams,
    Region,
    capacity,
    classify,
    constructible,
    construct,
    construct_ia_sco,
    upper_bound_cu,
    upper_bound_pec,
)
from burstfec.sco import ScoParams, construct_sco, single_user_capacity
from region_e_reference import region_e_structured_decode

GOLDENS = Path(__file__).parent / "goldens"


def _report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {verdict} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _all_points(limit=8):
    for b1 in range(1, limit + 1):
        for t1 in range(b1, limit + 1):
            for b2 in range(b1, limit + 1):
                for t2 in range(b2, limit + 1):
                    yield MulticastParams(b1, t1, b2, t2)


def test_criterion_1_capacity_formulas():
    t0 = time.time()
    assert single_user_capacity(2, 3) == Fraction(3, 5)
    assert single_user_capacity(1, 2) == Fraction(2, 3)
    expected = {
        (1, 2, 2, 4): Fraction(3, 5),
        (1, 2, 2, 5): Fraction(2, 3),
        (2, 3, 4, 8): Fraction(3, 5),
        (4, 5, 7, 10): Fraction(5, 11),
        (3, 5, 7, 9): Fraction(5, 11),
        (4, 4, 5, 6): Fraction(2, 5),
        (2, 3, 4, 4): Fraction(3, 8),
    }
    for point, want in expected.items():
        got = capacity(MulticastParams(*point)).capacity
        assert got == want, (point, got, want)
    dt = time.time() - t0
    _report("criterion 1: capacity formula suite", dt < 1.0, f"{dt:.2f}s, exact")


GOLDEN_CASES = [
    ("table_de_sco_2348.txt", (2, 3, 4, 8), "auto"),
    ("table_expanded_1224.txt", (1, 2, 2, 4), "auto"),
    ("table_ia_sco_1226.txt", (1, 2, 2, 6), "ia-sco"),
    ("table_de_sco_1225.txt", (1, 2, 2, 5), "auto"),
    ("table_f_min_t1_4456.txt", (4, 4, 5, 6), "auto"),
    ("table_e_45710.txt", (4, 5, 7, 10), "auto"),
    ("table_e_3579.txt", (3, 5, 7, 9), "auto"),
    ("table_f_min_t2_2344.txt", (2, 3, 4, 4), "auto"),
]


def test_criterion_2_golden_tables(tmp_path):
    t0 = time.time()
    for fname, point, method in GOLDEN_CASES:
        params = MulticastParams(*point)
        spec = construct_ia_sco(params) if method == "ia-sco" else construct(params)
        assert spec_to_text(spec) == (GOLDENS / fname).read_text(), fname
        out = tmp_path / fname
        argv = ["build", "--b1", str(point[0]), "--t1", str(point[1]),
                "--b2", str(point[2]), "--t2", str(point[3]), "--out", str(out)]
        if method == "ia-sco":
            argv += ["--method", "ia-sco"]
        assert cli_main(argv) == 0
        assert out.read_text() == (GOLDENS / fname).read_text(), fname
    dt = time.time() - t0
    _report("criterion 2: golden parity tables", dt < 1.0, f"8 tables bit-exact, {dt:.2f}s")


def test_criterion_3_single_user_exhaustive():
    t0 = time.time()
    for T in range(1, 9):
        for B in range(1, T + 1):
            spec = construct_sco(ScoParams(B, T))
            assert spec.rate == single_user_capacity(B, T) == Fraction(T, T + B)
            res = verify_deadlines(spec, UserSpec(B, T), window=4 * (T + B))
            assert res.passed, (B, T, res.counterexample)
    dt = time.time() - t0
    _report("criterion 3: single-user exhaustive verification", dt < 120,
            f"36 pairs, {dt:.1f}s")


def test_criterion_4_multicast_exhaustive():
    t0 = time.time()
    checked = 0
    for p in _all_points():
        if not constructible(p):
            continue
        spec = construct(p)
        assert spec.rate == capacity(p).capacity, p
        w = 4 * max(spec.memory, 1)
        r1 = verify_deadlines(spec, UserSpec(p.b1, p.t1), w)
        assert r1.passed, (p, "user 1", r1.counterexample)
        r2 = verify_deadlines(spec, UserSpec(p.b2, p.t2), w)
        assert r2.passed, (p, "user 2", r2.counterexample)
        checked += 1
    dt = time.time() - t0
    _report("criterion 4: multicast exhaustive verification", dt < 600,
            f"{checked} constructible points, {dt:.1f}s")


class _SetPattern:
    def __init__(self, times):
        self.times = times

    def erased(self, t):
        return t in self.times


def _oracle_sets(spec, received, erased_times, horizon):
    unknowns = [(t, r) for t in sorted(erased_times) for r in range(spec.n_source)]
    key = {u: i for i, u in enumerate(unknowns)}
    masks = []
    for t in range(horizon):
        if t in erased_times:
            continue
        for r, prow in enumerate(spec.parity_rows):
            mask, rhs, touched = 0, received[t][spec.n_source + r], False
            for tap in prow.taps:
                tt = t - tap.delay
                if tt < 0:
                    continue
                if tt in erased_times:
                    mask ^= 1 << key[(tt, tap.source_row)]
                    touched = True
                else:
                    rhs ^= received[tt][tap.source_row]
            if touched:
                masks.append((t, mask, rhs))
    sols = list(range(1 << len(unknowns)))
    determined = {}
    out = []
    idx = 0
    for t in range(horizon):
        while idx < len(masks) and masks[idx][0] <= t:
            _, mask, rhs = masks[idx]
            sols = [a for a in sols if bin(a & mask).count("1") % 2 == rhs]
            idx += 1
        for u, i in key.items():
            if u not in determined:
                vals = {(a >> i) & 1 for a in sols}
                if len(vals) == 1:
                    determined[u] = vals.pop()
        out.append(dict(determined))
    return out


def test_criterion_5_decoder_oracle_equivalence():
    from burstfec.algebra import GF2
    from burstfec.code_model import StreamingCodeSpec, Tap, make_row

    t0 = time.time()
    rng = random.Random(2024)
    instances = 0
    while instances < 200:
        n_src = rng.randint(1, 3)
        horizon = rng.randint(6, 12)
        rows = []
        for _ in range(rng.randint(1, 3)):
            taps = {(rng.randrange(n_src), rng.randint(0, 4)) for _ in range(rng.randint(1, 3))}
            rows.append(make_row([Tap(r, d, 1) for r, d in taps]))
        spec = StreamingCodeSpec(GF2, n_src, tuple(rows))
        erased = frozenset(rng.sample(range(horizon), rng.randint(1, min(4, horizon))))
        src = [[rng.randint(0, 1) for _ in range(n_src)] for _ in range(horizon)]
        pattern = _SetPattern(erased)
        received = apply_channel(encode(spec, src, horizon), pattern)
        report = generic_decode(spec, received, pattern, horizon)
        oracle = _oracle_sets(spec, received, erased, horizon)
        for t in range(horizon):
            got = {
                u: rep.value
                for u, rep in report.entries.items()
                if rep.erased and rep.recovery_time is not None and rep.recovery_time <= t
            }
            assert got == oracle[t], (t, got, oracle[t])
        for (t, r), rep in report.entries.items():
            if rep.erased and rep.value is not None:
                assert rep.value == src[t][r]
        instances += 1
    dt = time.time() - t0
    _report("criterion 5: decoder oracle equivalence", dt < 60,
            f"{instances} random instances, {dt:.1f}s")


# Erased symbols the layered recipe recovers after t + T2, as (offset from
# the burst start, source row) -> how late.  A layer-4 row whose causal taps
# read the burst's tail is read through helper values advanced past t + T2,
# which need a non-causal source tap from after the read.  The generic
# decoder meets T2 at these points (criterion 4); only the recipe is late.
REGION_E_RECIPE_LATE = {
    (2, 5, 6, 7): {(0, 3): 1},
    (2, 5, 7, 8): {(0, 3): 1},
    (2, 6, 7, 8): {(0, 3): 1, (1, 3): 1, (0, 4): 2},
}


def test_criterion_6_structured_region_e_agreement():
    t0 = time.time()
    step1_expect = {
        (4, 5, 7, 10): {(j, off) for j in (1, 2, 3) for off in (3, 4)},
        (3, 5, 7, 9): {(j, off) for j in (1, 2) for off in (2, 3, 4)},
    }
    points = [p for p in _all_points() if classify(p) is Region.E and constructible(p)]
    assert len(points) == 80
    for params in points:
        point = (params.b1, params.t1, params.b2, params.t2)
        for field in (None, GF256):
            spec = construct(params, field)
            mem = spec.memory
            window = 4 * mem
            horizon = mem + window + params.b2 + params.t2 + 2
            src = source_fill(spec.n_source, horizon, spec.field.size)
            channel = encode(spec, src, horizon)
            for start in range(mem, mem + window):
                burst = SingleBurst(start, params.b2)
                received = apply_channel(channel, burst)
                res = region_e_structured_decode(spec, params, received, burst)
                gen = generic_decode(spec, received, burst,
                                     min(horizon, start + params.b2 + params.t2 + 1))
                where = (point, spec.field, start)
                if point in step1_expect:
                    i0 = start + params.b2
                    got_step1 = {(j, t - i0) for j, t in res.helper_recoveries}
                    assert got_step1 == step1_expect[point], (where, got_step1)
                assert set(res.recovered) == {
                    (t, row) for t in range(start, start + params.b2)
                    for row in range(spec.n_source)
                }, where
                late = {}
                for (t, row), (value, when) in res.recovered.items():
                    assert value == src[t][row], (where, t, row)
                    assert gen.entries[(t, row)].value == value, (where, t, row)
                    if when > t + params.t2:
                        late[(t - start, row)] = when - t - params.t2
                assert late == REGION_E_RECIPE_LATE.get(point, {}), (where, late)
    dt = time.time() - t0
    _report("criterion 6: structured region-e decoder agreement", dt < 60,
            f"{len(points)} points x 2 fields, {len(REGION_E_RECIPE_LATE)} late by the recipe,"
            f" {dt:.1f}s")


def test_criterion_7_pec_counting():
    t0 = time.time()
    # (1,2,2,4): 5 source symbols per period from 3 unerased channel symbols
    mp = MulticastParams(1, 2, 2, 4)
    res = run_pec(construct(mp), make_periodic("multicast_caseA", mp), periods=4)
    for s in res.summaries:
        assert (s.counted_recovered, s.unerased_counted) == (5, 3), vars(s)
        assert Fraction(s.unerased_counted, s.counted_recovered) == Fraction(3, 5)
    # every erased symbol is back by the end of its own period (3+ periods)
    c = res.pattern.period
    for t, rec in res.schedule():
        assert rec is not None and rec <= (t // c + 1) * c - 1

    # (4,5,7,10): 5/11 with the genie schedule: relative times 0,1 by 10,11
    # and 3..6 by 8..11 (time 2 is revealed, not counted)
    mp = MulticastParams(4, 5, 7, 10)
    res = run_pec(construct(mp), make_periodic("region_e", mp), periods=4)
    for s in res.summaries:
        assert (s.counted_recovered, s.unerased_counted) == (11, 5), vars(s)
    d = res.pattern.period
    for k in range(3):
        rel = {t - k * d: rec - k * d for t, rec in res.schedule()
               if k * d <= t < (k + 1) * d and rec is not None}
        assert rel == {0: 10, 1: 11, 3: 8, 4: 9, 5: 10, 6: 11}, (k, rel)

    # (2,3,4,4): 8 counted per period (one double recovery) from 3 unerased
    mp = MulticastParams(2, 3, 4, 4)
    res = run_pec(construct(mp), make_periodic("region_f_T2B2", mp), periods=4,
                  double_rule=(mp.t1, mp.t2))
    for s in res.summaries:
        assert s.double_recovered == 1, vars(s)
        assert (s.counted_recovered, s.unerased_counted) == (8, 3), vars(s)
        assert Fraction(s.unerased_counted, s.counted_recovered) == Fraction(3, 8)
    dt = time.time() - t0
    _report("criterion 7: periodic-erasure counting reproduction", dt < 60, f"{dt:.1f}s")


def test_criterion_8_bound_consistency_and_contour():
    t0 = time.time()
    pts = list(_all_points())
    for p in pts:
        cap = capacity(p).capacity
        if cap is None:
            continue
        assert cap <= upper_bound_pec(p), p
        assert cap <= upper_bound_cu(p), p
    for p in pts:
        q = MulticastParams(p.b1, p.t1, p.b2 + 1, p.t2 + 1)
        if classify(p) is Region.E and classify(q) is Region.E:
            assert capacity(p).capacity == capacity(q).capacity, (p, q)
    dt = time.time() - t0
    _report("criterion 8: bound consistency and region-e contour", True, f"{dt:.1f}s")
