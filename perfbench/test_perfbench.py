"""Self-tests of the benchmark: its checks catch a broken code, and the
workload seed changes source data only.

    python3 -m pytest perfbench
"""

from pathlib import Path

from tracing import Tracer
from workloads import GF256_POINTS, ConstructGrid, Library, PecLong, Sweep

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def fail_frac(res) -> float:
    return res.failed / res.attempted


def test_sabotaged_region_b_spec_fails():
    lib = Library(SRC)
    mu, cm = lib.musco, lib.code_model
    params = mu.MulticastParams(1, 2, 2, 4)
    assert mu.classify(params) is mu.Region.B
    spec = mu.construct(params)
    sweep = Sweep("sabotage", "", [])
    assert fail_frac(sweep.run_pass(lib, [(params, spec)], seed=1)) == 0
    broken = cm.StreamingCodeSpec(spec.field, spec.n_source, spec.parity_rows[:-1], spec.label)
    res = sweep.run_pass(lib, [(params, broken)], seed=1)
    assert fail_frac(res) > 0
    rate_ok, verdicts = res.outcomes[0]
    assert not rate_ok and False in verdicts


def traced_outcomes(workload, seed: int):
    lib = Library(SRC)
    inputs = workload.setup(lib, ROOT)
    tracer = Tracer()
    tracer.install(lib)
    res = workload.run_pass(lib, inputs, seed, tracer)
    calls = {name: st[0] for name, st in tracer.stats.items()}
    return res.outcomes, res.attempted, res.failed, res.work, calls, dict(tracer.counts)


def test_seed_changes_no_verdict_or_count():
    workloads = [
        Sweep("small", "", [(1, 2, 2, 4), (2, 3, 4, 8), GF256_POINTS[20]]),
        PecLong(periods=6),
        ConstructGrid(limit=4),
    ]
    for wl in workloads:
        first = traced_outcomes(wl, seed=1)
        assert first[2] == 0, wl
        assert first == traced_outcomes(wl, seed=2), wl
