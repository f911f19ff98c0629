#!/usr/bin/env python3
"""burstfec benchmark: time the deadline oracle under the traffic it serves.

    python3 perfbench/run.py --workload sweep_gf2 --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the library is imported from
``src/`` as it stands, nothing is installed.  One run serves one workload
(``perfbench/workloads.py``) in this single process, with no worker pool,
for about ``--seconds``, checks every output, and prints the result as one
JSON object on the last line of standard output:

- ``--trace 0``: end-to-end metrics, measured with no wrappers installed;
- ``--trace 1``: per-layer metrics from wrappers around the library's public
  entry points (``perfbench/tracing.py``), plus the tracing overhead as
  untraced against traced passes of the same run.  Spans are kept in memory
  and written to ``perfbench/results/`` when the run ends.

Every pass is whole: a pass serves every item of the workload once, and
the run starts another while it is due to end no later than half a pass
past ``--seconds``.  Each metric is computed per pass (its work per second,
its items' median and 80th-percentile time) and the median over the run's
passes is reported, so a stretch of the run that the shared host slows
moves at most a minority of the passes and not the figure.  Set-up (a fresh
import plus building the workload's inputs) is repeated and its median
reported.  The timing is plain
``time.perf_counter``: ``pytest-benchmark`` is not used, and results follow
the ``BENCHMARK.json`` contract rather than a ``BENCH_<n>.json`` file.  The run record (Python version, nproc, git SHA,
item counts, seed) is printed as a ``# context`` line and written next to the
spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import REGION_KEYS, Tracer  # noqa: E402
from workloads import WORKLOADS, Library  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside a
    repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_passes(wl, lib, inputs, seed: int, budget: float, tracer=None):
    """Serve whole passes while the next is due to end no later than half a
    pass past ``budget`` seconds, so the run's length is ``budget`` on
    average and every pass counts the same work.  Cold workloads re-import
    the library before each pass."""
    results = []
    start = perf_counter()
    if tracer is not None and not wl.cold:
        tracer.install(lib)
    while True:
        if wl.cold:
            lib = Library(SRC)
            if tracer is not None:
                tracer.install(lib)
        gc.collect()
        results.append(wl.run_pass(lib, inputs, seed, tracer))
        elapsed = perf_counter() - start
        if elapsed * (len(results) + 0.5) / len(results) > budget:
            return results


def percentile_ms(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] * 1e3


def pass_median(results, figure) -> float:
    """Median over the passes of one pass's figure."""
    return statistics.median(figure(r) for r in results)


def work_per_s(results) -> float:
    return pass_median(results, lambda r: sum(r.work) / sum(r.seconds))


def gf256_timings(lib) -> dict:
    """ns per GF(2^8) mul over all nonzero pairs, and per inv over all
    nonzero values; median of five rounds, before any wrapper is installed."""
    gf = lib.algebra.GF256
    mul, inv = gf.mul, gf.inv
    nonzero = range(1, gf.size)
    mul_ns, inv_ns = [], []
    for _ in range(5):
        start = perf_counter()
        for a in nonzero:
            for b in nonzero:
                mul(a, b)
        mul_ns.append((perf_counter() - start) * 1e9 / len(nonzero) ** 2)
        start = perf_counter()
        for _ in range(8):
            for a in nonzero:
                inv(a)
        inv_ns.append((perf_counter() - start) * 1e9 / (8 * len(nonzero)))
    return {
        "algebra.gf256_mul_ns": (statistics.median(mul_ns), "ns"),
        "algebra.gf256_inv_ns": (statistics.median(inv_ns), "ns"),
    }


def layer_metrics(tracer: Tracer, traced, untraced, items: int) -> dict:
    """Per-pass figures of every layer, and the tracing overhead."""
    n = len(traced)

    def per_pass(x):
        return x / n

    def ms(name):
        return per_pass(tracer.stat(name)[1]) * 1e3

    def calls(name):
        return per_pass(tracer.stat(name)[0])

    def ratio(num, den):
        return num / den if den else 0.0

    gd, c = "channel_sim.generic_decode", tracer.counts
    decodes, decode_s, decode_self_s = tracer.stat(gd)
    equations = tracer.stat("algebra.add_equation")[0]
    blocks = tracer.stat("ldbebc.verify_ldbebc")[0]
    out = {
        gd + ".calls": (calls(gd), "count"),
        gd + ".ms": (ms(gd), "ms"),
        gd + ".self_ms": (per_pass(decode_self_s) * 1e3, "ms"),
        gd + ".decodes_per_point": (ratio(calls(gd), items), "count"),
        gd + ".unknowns_mean": (ratio(c["decode.unknowns"], decodes), "count"),
        gd + ".horizon_mean": (ratio(c["decode.horizon"], decodes), "count"),
        gd + ".ms_per_unknown": (ratio(decode_s * 1e3, c["decode.unknowns"]), "ms"),
        "channel_sim.verify_deadlines.calls": (calls("channel_sim.verify_deadlines"), "count"),
        "channel_sim.verify_deadlines.ms": (ms("channel_sim.verify_deadlines"), "ms"),
        "channel_sim.run_pec.ms": (ms("channel_sim.run_pec"), "ms"),
        "algebra.add_equation.calls": (calls("algebra.add_equation"), "count"),
        "algebra.add_equation.ms": (ms("algebra.add_equation"), "ms"),
        "algebra.add_equation.useful_ratio": (ratio(c["add_equation.useful"], equations), "ratio"),
        "algebra.mul.gf2.calls": (per_pass(c["algebra.mul.gf2"]), "count"),
        "algebra.mul.gf256.calls": (per_pass(c["algebra.mul.gf256"]), "count"),
        "algebra.inv.calls": (per_pass(c["algebra.inv"]), "count"),
        "code_model.encode.calls": (calls("code_model.encode"), "count"),
        "code_model.encode.ms": (ms("code_model.encode"), "ms"),
        "code_model.encode.us_per_step": (
            ratio(tracer.stat("code_model.encode")[1] * 1e6, c["encode.steps"]), "us"),
    }
    for region in REGION_KEYS.values():
        out["musco.construct.ms." + region] = (ms("musco.construct." + region), "ms")
    out.update({
        "ldbebc.construct_ldbebc.calls": (calls("ldbebc.construct_ldbebc"), "count"),
        "ldbebc.construct_ldbebc.ms": (ms("ldbebc.construct_ldbebc"), "ms"),
        "ldbebc.verify_ldbebc.calls": (calls("ldbebc.verify_ldbebc"), "count"),
        "ldbebc.verify_ldbebc.ms": (ms("ldbebc.verify_ldbebc"), "ms"),
        "ldbebc.verify_ldbebc.pass_ratio": (ratio(c["verify_ldbebc.pass"], blocks), "ratio"),
        "sco.construct_sco.calls": (calls("sco.construct_sco"), "count"),
        "sco.construct_sco.ms": (ms("sco.construct_sco"), "ms"),
    })
    plain, traced_rate = work_per_s(untraced), work_per_s(traced)
    out.update({
        "trace.untraced_work_per_s": (plain, "1/s"),
        "trace.traced_work_per_s": (traced_rate, "1/s"),
        "trace.overhead_frac": (plain / traced_rate - 1, "ratio"),
        "trace.spans": (per_pass(len(tracer.spans)), "count"),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "burstfec" / "__init__.py").is_file() or not (ROOT / "tests" / "goldens").is_dir():
        print(f"error: {ROOT} is not a burstfec checkout (src/burstfec, tests/goldens)", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lib = Library(SRC)
        inputs = wl.setup(lib, ROOT)
        setup_s.append(perf_counter() - start)

    if args.trace:
        micro = gf256_timings(lib)
        untraced = run_passes(wl, lib, inputs, args.seed, args.seconds / 2)
        tracer = Tracer()
        traced = run_passes(wl, lib, inputs, args.seed, args.seconds / 2, tracer)
        passes = untraced + traced
        metrics = layer_metrics(tracer, traced, untraced, len(traced[0].seconds))
        metrics.update(micro)
    else:
        passes = run_passes(wl, lib, inputs, args.seed, args.seconds)
        metrics = {
            "work_per_s": (work_per_s(passes), "1/s"),
            "item_ms_p50": (pass_median(passes, lambda r: percentile_ms(r.seconds, 50)), "ms"),
            "item_ms_p80": (pass_median(passes, lambda r: percentile_ms(r.seconds, 80)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_s), "s"),
        }

    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    context = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "passes": len(passes),
        "work_unit": wl.unit,
        "item": wl.item,
        "setup_repeats": SETUP_REPEATS,
        **wl.describe(inputs),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"context": context, "result": result}, fh, indent=1)
    if args.trace:
        tracer.dump(RESULTS / f"{stem}-spans.json")
    print("# context " + json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
