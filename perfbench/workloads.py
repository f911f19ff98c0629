"""The benchmark's workloads and the output checks each one makes.

Every workload is a fixed list of items.  A *pass* serves all the items in
order, timing each on its own, so every pass a metric is computed from has
the same mix of items.  The workload seed only
picks the source data handed to ``verify_deadlines`` and ``run_pec``: which
items run, every verdict and every count are the same for every seed.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

LIBRARY_MODULES = ("algebra", "code_model", "ldbebc", "sco", "musco", "channel_sim")


class Library:
    """One fresh import of ``burstfec``: new module objects, empty caches."""

    def __init__(self, src: Path) -> None:
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        for name in [m for m in sys.modules if m == "burstfec" or m.startswith("burstfec.")]:
            del sys.modules[name]
        for name in LIBRARY_MODULES:
            setattr(self, name, importlib.import_module(f"burstfec.{name}"))


def multicast_points(limit: int):
    """(b1, t1, b2, t2) with 1 <= b1 <= b2, b <= t and every value <= limit,
    in the order the acceptance sweep uses."""
    for b1 in range(1, limit + 1):
        for t1 in range(b1, limit + 1):
            for b2 in range(b1, limit + 1):
                for t2 in range(b2, limit + 1):
                    yield (b1, t1, b2, t2)


# The 50 constructible points <= 8 that construct() builds over GF(2^8) at
# the commit that introduced this benchmark.  Kept as data so the GF(2^8)
# traffic cannot drift when the construction's field choice changes.
# The GF(2^8) sweep leaves out the five region-b points (1, t1 <= 6, 5, 8),
# whose codes carry 35 source rows: each takes over a second to verify, half
# of the whole list's time, so a run could time each of them only once or
# twice and its figures would follow every drift in machine speed.
GF256_POINTS = (
    (1, 2, 5, 8), (1, 3, 5, 8), (1, 4, 2, 8), (1, 4, 5, 8), (1, 5, 2, 8),
    (1, 5, 5, 8), (1, 6, 2, 6), (1, 6, 2, 7), (1, 6, 2, 8), (1, 6, 5, 8),
    (1, 7, 2, 6), (1, 7, 2, 7), (1, 7, 2, 8), (1, 7, 5, 7), (1, 7, 5, 8),
    (1, 8, 2, 6), (1, 8, 2, 7), (1, 8, 2, 8), (1, 8, 5, 7), (1, 8, 5, 8),
    (2, 6, 2, 6), (2, 6, 2, 7), (2, 6, 2, 8), (2, 6, 7, 7), (2, 6, 7, 8),
    (2, 6, 8, 8), (2, 7, 2, 6), (2, 7, 2, 7), (2, 7, 2, 8), (2, 7, 5, 7),
    (2, 7, 5, 8), (2, 7, 8, 8), (2, 8, 2, 6), (2, 8, 2, 7), (2, 8, 2, 8),
    (2, 8, 5, 7), (2, 8, 5, 8), (3, 7, 5, 7), (3, 7, 5, 8), (3, 8, 5, 7),
    (3, 8, 5, 8), (4, 7, 5, 7), (4, 7, 5, 8), (4, 8, 5, 7), (4, 8, 5, 8),
    (5, 7, 5, 7), (5, 7, 5, 8), (5, 7, 8, 8), (5, 8, 5, 7), (5, 8, 5, 8),
)
HEAVY_REGION_B = tuple((1, t1, 5, 8) for t1 in range(2, 7))
GF256_SWEEP_POINTS = tuple(pt for pt in GF256_POINTS if pt not in HEAVY_REGION_B)

# The worked periodic schedules of acceptance criterion 7 and
# scripts/pec_schedules.py: (variant, parameters, double tally?, the
# (counted, unerased, double) triple every period must reproduce).
PEC_SCHEDULES = (
    ("single_user", (2, 3), False, (5, 3, 0)),
    ("multicast_caseA", (1, 2, 2, 4), False, (5, 3, 0)),
    ("region_e", (4, 5, 7, 10), False, (11, 5, 0)),
    ("region_f_T2B2", (2, 3, 4, 4), True, (8, 3, 1)),
)
PEC_PERIODS = 150

# The golden parity tables and the construction that must reproduce each.
GOLDEN_TABLES = (
    ("table_de_sco_2348.txt", (2, 3, 4, 8), "auto"),
    ("table_expanded_1224.txt", (1, 2, 2, 4), "auto"),
    ("table_ia_sco_1226.txt", (1, 2, 2, 6), "ia-sco"),
    ("table_de_sco_1225.txt", (1, 2, 2, 5), "auto"),
    ("table_f_min_t1_4456.txt", (4, 4, 5, 6), "auto"),
    ("table_e_45710.txt", (4, 5, 7, 10), "auto"),
    ("table_e_3579.txt", (3, 5, 7, 9), "auto"),
    ("table_f_min_t2_2344.txt", (2, 3, 4, 4), "auto"),
)


@dataclass
class PassResult:
    """One pass: seconds and work units of each item served, and the checks
    it made."""

    seconds: list[float] = field(default_factory=list)
    work: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outcomes: list = field(default_factory=list)  # per item, seed-independent

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def serve(items, tracer):
    """Yield the items in order, tagging the trace with the item's index."""
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.request = i
        yield item


# -- deadline sweeps ------------------------------------------------------------


def verify_point(lib: Library, params, spec, seed: int) -> tuple[bool, bool]:
    """Both users' exhaustive single-burst sweeps at window 4*max(memory, 1).

    A wrong decoded value makes ``verify_deadlines`` raise AssertionError;
    that is a failed verdict, not a crash of the benchmark.
    """
    window = 4 * max(spec.memory, 1)
    verdicts = []
    for burst, delay in ((params.b1, params.t1), (params.b2, params.t2)):
        user = lib.channel_sim.UserSpec(burst, delay)
        try:
            verdicts.append(lib.channel_sim.verify_deadlines(spec, user, window, seed).passed)
        except AssertionError:
            verdicts.append(False)
    return tuple(verdicts)


class Sweep:
    """Criterion-4 traffic: every item is one point, both users verified."""

    unit = "points verified"
    item = "point"
    cold = False

    def __init__(self, name: str, why: str, points) -> None:
        self.name, self.why, self.points = name, why, tuple(points)

    def setup(self, lib: Library, root: Path):
        mu = lib.musco
        out = []
        for pt in self.points:
            params = mu.MulticastParams(*pt)
            if mu.constructible(params):
                out.append((params, mu.construct(params)))
        return out

    def run_pass(self, lib: Library, specs, seed: int, tracer=None) -> PassResult:
        res = PassResult()
        capacity = lib.musco.capacity
        for params, spec in serve(specs, tracer):
            start = perf_counter()
            verdicts = verify_point(lib, params, spec, seed)
            res.seconds.append(perf_counter() - start)
            rate_ok = spec.rate == capacity(params).capacity
            res.check(rate_ok)
            for ok in verdicts:
                res.check(ok)
            res.work.append(1)
            res.outcomes.append((rate_ok, verdicts))
        return res

    def describe(self, specs) -> dict:
        return {"points": len(specs)}


def gf2_sweep_points():
    """Points <= 6 off the fixed GF(2^8) list; the constructible ones are
    the points construct() builds over GF(2).  At <= 7 one pass takes about
    17 s, so a run would time each point once."""
    from_list = set(GF256_POINTS)
    return [pt for pt in multicast_points(6) if pt not in from_list]


# -- long periodic-erasure decodes ------------------------------------------------


class PecLong:
    """Each item is one run_pec call: a single elimination with thousands of
    unknowns, so the solver's per-equation cost at high rank shows."""

    name = "pec_long"
    why = "run_pec on the four worked schedules at 150 periods: large eliminations whose cost grows with rank"
    unit = "erased sub-symbols resolved"
    item = "schedule decode"
    cold = False

    def __init__(self, periods: int = PEC_PERIODS) -> None:
        self.periods = periods

    def setup(self, lib: Library, root: Path):
        cs, mu = lib.channel_sim, lib.musco
        out = []
        for variant, pt, double, expect in PEC_SCHEDULES:
            if variant == "single_user":
                spec = lib.sco.construct_sco(lib.sco.ScoParams(*pt))
                params = pt
            else:
                params = mu.MulticastParams(*pt)
                spec = mu.construct(params)
            rule = (params.t1, params.t2) if double else None
            out.append((spec, cs.make_periodic(variant, params), rule, expect))
        return out

    def run_pass(self, lib: Library, inputs, seed: int, tracer=None) -> PassResult:
        res = PassResult()
        cs = lib.channel_sim
        for spec, pattern, rule, expect in serve(inputs, tracer):
            start = perf_counter()
            run = cs.run_pec(spec, pattern, self.periods, seed, rule)
            res.seconds.append(perf_counter() - start)
            triples = [
                (s.counted_recovered, s.unerased_counted, s.double_recovered) for s in run.summaries
            ]
            for triple in triples:
                res.check(triple == expect)
            res.check(len(triples) == self.periods)
            report = run.report
            src = cs.source_fill(spec.n_source, report.horizon, spec.field.size, seed)
            # Erasures go on past the counted periods, into the decode's tail,
            # where the horizon cuts them off; the triples above cover which
            # symbols must come back.  Every one that does must be right.
            resolved = 0
            for (t, row), rep in report.erased_entries():
                if rep.recovery_time is not None:
                    ok = rep.value == src[t][row]
                    res.check(ok)
                    resolved += ok
            res.work.append(resolved)
            res.outcomes.append((triples, resolved, run.schedule()))
        return res

    def describe(self, inputs) -> dict:
        return {"schedules": len(inputs), "periods": self.periods}


# -- cold construction ------------------------------------------------------------


class ConstructGrid:
    """Each item is one cold construct() call; the runner re-imports the
    library before every pass so no construction cache carries over."""

    name = "construct_grid"
    why = "cold construct() of all 5379 constructible points <= 14: construction layers only, no decoding"
    unit = "points constructed"
    item = "point"
    cold = True

    def __init__(self, limit: int = 14) -> None:
        self.limit = limit

    def setup(self, lib: Library, root: Path):
        mu = lib.musco
        points = [pt for pt in multicast_points(self.limit) if mu.constructible(mu.MulticastParams(*pt))]
        goldens = [((root / "tests" / "goldens" / f).read_bytes(), pt, m) for f, pt, m in GOLDEN_TABLES]
        return points, goldens

    def run_pass(self, lib: Library, inputs, seed: int, tracer=None) -> PassResult:
        res = PassResult()
        mu = lib.musco
        points, goldens = inputs
        params = [mu.MulticastParams(*pt) for pt in points]
        for p in serve(params, tracer):
            start = perf_counter()
            try:
                spec = mu.construct(p)
            except ValueError:
                spec = None
            res.seconds.append(perf_counter() - start)
            ok = spec is not None and spec.rate == mu.capacity(p).capacity
            res.check(ok)
            res.work.append(ok)
            res.outcomes.append(ok)
        if tracer is not None:
            tracer.request = "goldens"
        for text, pt, method in goldens:
            p = mu.MulticastParams(*pt)
            spec = mu.construct_ia_sco(p) if method == "ia-sco" else mu.construct(p)
            res.check(lib.code_model.spec_to_text(spec).encode() == text)
        return res

    def describe(self, inputs) -> dict:
        points, goldens = inputs
        return {"points": len(points), "golden_tables": len(goldens)}


WORKLOADS = {
    # GF(2) bitmask elimination under the acceptance sweep; generic_decode
    # (prefix replay and rhs arithmetic) dominates, construction does not.
    "sweep_gf2": Sweep(
        "sweep_gf2",
        "criterion-4 sweep of the 260 GF(2) points <= 6: bitmask elimination and decode prefix replay",
        gf2_sweep_points(),
    ),
    # The only traffic on the dict-based elimination path and GF(2^8) mul/inv.
    "sweep_gf256": Sweep(
        "sweep_gf256",
        "criterion-4 sweep of 45 GF(2^8) points <= 8: dict elimination and GF(2^8) mul/inv",
        GF256_SWEEP_POINTS,
    ),
    # Few, large eliminations: per-equation solver cost as rank grows.
    "pec_long": PecLong(),
    # Construction layers (ldbebc, sco, musco, code_model) with no decoder.
    "construct_grid": ConstructGrid(),
}
