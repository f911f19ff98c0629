"""Spans and counters recorded around the library's public entry points.

The tracer lives entirely in the benchmark: it replaces public module and
class attributes of a freshly imported ``burstfec`` with thin wrappers and
changes nothing under ``src/``.  Each wrapped call pushes a frame so that a
layer's self time is its duration minus the time of the wrapped calls it
made.  Coarse layers also keep one span each, in memory, until the run
writes them out; the hottest layers (``add_equation``, ``mul``, ``inv``)
keep only aggregate counters so the trace stays small.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

# classify(p).value -> suffix of the musco.construct.ms.<region> metrics
REGION_KEYS = {
    "a": "a",
    "a'": "a_prime",
    "b": "b",
    "c": "c",
    "d": "d",
    "e": "e",
    "f(T1=B1)": "f_t1b1",
    "f(T2=B2)": "f_t2b2",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, request, name, start, end)
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self.request = None  # workload item being served; tags every span
        self._stack: list[list] = []  # [span id, seconds spent in wrapped children]
        self._next_id = 0

    def timed(self, name, fn, record: bool = True, after=None):
        """Wrap ``fn``; ``name`` is a string or a function of the call's
        arguments.  ``after(tracer, result, args)`` runs once the call's
        time is booked."""

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                took = end - start
                if self._stack:
                    self._stack[-1][1] += took
                st = self.stats.setdefault(label, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += took
                st[2] += took - frame[1]
                if record:
                    self.spans.append((sid, parent, self.request, label, start, end))
            if after is not None:
                after(self, result, args)
            return result

        return wrapper

    def install(self, lib) -> None:
        """Wrap the public layer boundaries of one imported library."""
        cs, cm, alg = lib.channel_sim, lib.code_model, lib.algebra
        ld, sco, mu = lib.ldbebc, lib.sco, lib.musco

        cs.generic_decode = self.timed("channel_sim.generic_decode", cs.generic_decode, after=_note_decode)
        cs.verify_deadlines = self.timed("channel_sim.verify_deadlines", cs.verify_deadlines)
        cs.run_pec = self.timed("channel_sim.run_pec", cs.run_pec)
        encode = self.timed("code_model.encode", cm.encode, after=_note_encode)
        cs.encode = cm.encode = encode

        solver = alg.IncrementalSolver
        solver.add_equation = self.timed(
            "algebra.add_equation", solver.add_equation, record=False, after=_note_equation
        )
        fs = alg.FieldSpec
        mul, inv, counts = fs.mul, fs.inv, self.counts

        def counted_mul(f, a, b):
            counts["algebra.mul.gf2" if f.order_exponent == 1 else "algebra.mul.gf256"] += 1
            return mul(f, a, b)

        def counted_inv(f, a):
            counts["algebra.inv"] += 1
            return inv(f, a)

        fs.mul, fs.inv = counted_mul, counted_inv

        classify = mu.classify
        mu.construct = self.timed(
            lambda p, *a, **k: "musco.construct." + REGION_KEYS[classify(p).value], mu.construct
        )
        block = self.timed("ldbebc.construct_ldbebc", ld.construct_ldbebc)
        ld.construct_ldbebc = sco.construct_ldbebc = mu.construct_ldbebc = block
        ld.verify_ldbebc = self.timed("ldbebc.verify_ldbebc", ld.verify_ldbebc, after=_note_block_verdict)
        sco_ctor = self.timed("sco.construct_sco", sco.construct_sco)
        sco.construct_sco = mu.construct_sco = sco_ctor

    def stat(self, name: str):
        """(calls, seconds, self seconds) of one layer; zeros if never called."""
        return self.stats.get(name, (0, 0.0, 0.0))

    def dump(self, path) -> None:
        """Write spans (times in µs from the first span) and aggregates."""
        t0 = self.spans[0][4] if self.spans else 0.0
        spans = [
            [sid, parent, req, name, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1)]
            for sid, parent, req, name, s, e in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "request", "name", "start_us", "end_us"],
                    "spans": spans,
                    "stats": self.stats,
                    "counts": dict(self.counts),
                },
                fh,
            )


def _note_decode(tracer, report, args) -> None:
    tracer.counts["decode.unknowns"] += sum(1 for rep in report.entries.values() if rep.erased)
    tracer.counts["decode.horizon"] += args[3]


def _note_encode(tracer, channel, args) -> None:
    tracer.counts["encode.steps"] += len(channel)


def _note_equation(tracer, fresh, args) -> None:
    if fresh:
        tracer.counts["add_equation.useful"] += 1


def _note_block_verdict(tracer, report, args) -> None:
    if report.ok:
        tracer.counts["verify_ldbebc.pass"] += 1
