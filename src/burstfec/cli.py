"""Command-line front end: classify, capacity tables, build, verify, pec.

Exit codes: 0 success, 2 verification failure, 3 open-capacity refusal,
4 invalid parameters, usage errors included.  Commands raise; ``main``
alone maps an ``UnknownRegionError`` to 3 and any other ``ValueError`` to
4.  Anything else, such as a decoder contradiction on burstfec's own
encoded stream (``InconsistentSystemError``), is a fault in the program
and propagates.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .algebra import FIELDS
from .channel_sim import UserSpec, make_periodic, region_schedule, run_pec, verify_deadlines
from .code_model import spec_to_text
from .musco import (
    MulticastParams,
    Region,
    UnknownRegionError,
    capacity,
    classify,
    construct,
    construct_ia_sco,
    constructible,
    region_inequalities,
    upper_bound_cu,
    upper_bound_pec,
)
from .sco import ScoParams, construct_sco

EXIT_OK = 0
EXIT_VERIFY_FAIL = 2
EXIT_OPEN_CAPACITY = 3
EXIT_INVALID = 4

def _frac(x) -> str:
    if x is None:
        return "UNKNOWN"
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _params(args) -> MulticastParams:
    return MulticastParams(args.b1, args.t1, args.b2, args.t2)


def _out_error(path: str, exc: OSError) -> ValueError:
    return ValueError(f"cannot write --out {path}: {exc.strerror}")


def _check_out(path: str) -> None:
    """Fail before any work if ``path`` cannot be opened for writing, with
    the error ``_emit`` would give; the file is neither created nor
    truncated."""
    try:
        if os.path.exists(path):
            os.close(os.open(path, os.O_WRONLY | os.O_APPEND))
        else:  # a new file: its directory must exist and take it
            parent = os.path.dirname(path) or "."
            os.close(os.open(parent, os.O_RDONLY | os.O_DIRECTORY))
            if not os.access(parent, os.W_OK | os.X_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise _out_error(path, exc) from None


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _out_error(args.out, exc) from None
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_classify(args) -> int:
    p = _params(args)
    region = classify(p)
    lines = [f"params B1={p.b1} T1={p.t1} B2={p.b2} T2={p.t2}"]
    lines.append(f"region: {region.value}")
    if region is Region.A_PRIME:
        lines.append("interference-avoidance eligible (T2 >= (alpha+1) T1, integer alpha)")
    if region is Region.F_INTERIOR:
        lines.append("capacity open")
    lines.extend(region_inequalities(p))
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _grid(n: int) -> list[MulticastParams]:
    """Every point with 1 <= b1 <= b2, b <= t and all values in 1..n, in
    parameter order."""
    if n < 1:
        raise ValueError(f"sweep must be >= 1, got {n}")
    return [
        MulticastParams(b1, t1, b2, t2)
        for b1 in range(1, n + 1)
        for t1 in range(b1, n + 1)
        for b2 in range(b1, n + 1)
        for t2 in range(b2, n + 1)
    ]


def _capacity_row(p: MulticastParams):
    res = capacity(p)
    return (
        p.b1,
        p.t1,
        p.b2,
        p.t2,
        classify(p).value,
        _frac(res.capacity),
        _frac(upper_bound_pec(p)),
        _frac(upper_bound_cu(p)),
        _frac(res.upper_bound),
        res.achieving_construction or "",
    )


def cmd_capacity(args) -> int:
    header = ("b1", "t1", "b2", "t2", "region", "capacity", "pec_bound", "cu_bound",
              "best_bound", "construction")
    if args.sweep is not None:
        points = _grid(args.sweep)
        given = [f"--{name}" for name in ("b1", "t1", "b2", "t2") if getattr(args, name) is not None]
        if given:
            raise ValueError(f"--sweep tabulates every point; drop {', '.join(given)}")
    elif None in (args.b1, args.t1, args.b2, args.t2):
        raise ValueError("capacity needs --b1/--t1/--b2/--t2 or --sweep")
    else:
        points = [_params(args)]
    rows = [_capacity_row(p) for p in points]
    if args.format == "json":
        keys = header
        _emit(args, json.dumps([dict(zip(keys, r)) for r in rows], indent=2) + "\n")
    else:
        _emit(args, _csv_text(header, rows))
    return EXIT_OK


def _build_spec(args):
    field = FIELDS[args.field] if args.field else None
    if args.b2 is None:
        if args.method == "ia-sco":
            raise ValueError("--method ia-sco needs a multicast point (--b2/--t2)")
        return construct_sco(ScoParams(args.b1, args.t1), field)
    p = _params(args)
    if args.method == "ia-sco":
        return construct_ia_sco(p, field)
    return construct(p, field)


def cmd_build(args) -> int:
    _emit(args, spec_to_text(_build_spec(args)))
    return EXIT_OK


def _verify_users(spec, users, window) -> list:
    """Each user's exhaustive single-burst sweep, by default over a
    4*memory window."""
    if window is None:
        window = 4 * max(spec.memory, 1)
    return [verify_deadlines(spec, user, window) for user in users]


def _sweep_row(p: MulticastParams) -> tuple:
    """One ``verify --sweep`` row: a point passes when its code's rate is the
    capacity and both users' sweeps pass."""
    spec = construct(p)
    results = _verify_users(spec, (UserSpec(p.b1, p.t1), UserSpec(p.b2, p.t2)), None)
    ok = spec.rate == capacity(p).capacity and all(r.passed for r in results)
    return (
        p.b1, p.t1, p.b2, p.t2, classify(p).value, str(spec.rate),
        "PASS" if ok else "FAIL", sum(r.trials for r in results),
    )


def _verify_grid(args) -> int:
    point_flags = ("b1", "t1", "b2", "t2", "window", "field")
    given = [f"--{name}" for name in point_flags if getattr(args, name) is not None]
    if args.method != "auto":
        given.append("--method")
    if given:
        raise ValueError(f"--sweep builds each point's own code; drop {', '.join(given)}")
    if args.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    points = [p for p in _grid(args.sweep) if constructible(p)]
    if args.jobs > 1:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=args.jobs, mp_context=ctx) as pool:
            rows = list(pool.map(_sweep_row, points, chunksize=8))
    else:
        rows = [_sweep_row(p) for p in points]
    _emit(args, _csv_text(("b1", "t1", "b2", "t2", "region", "rate", "verdict", "trials"), rows))
    failures = sum(row[6] == "FAIL" for row in rows)
    print(f"{len(points)} points, {failures} failures", file=sys.stderr)
    return EXIT_VERIFY_FAIL if failures else EXIT_OK


def cmd_verify(args) -> int:
    if args.sweep is not None:
        return _verify_grid(args)
    if args.b1 is None or args.t1 is None:
        raise ValueError("verify needs --b1/--t1 or --sweep")
    if args.jobs != 1:
        raise ValueError("--jobs needs --sweep")
    spec = _build_spec(args)
    users = [UserSpec(args.b1, args.t1)]
    if args.b2 is not None:
        users.append(UserSpec(args.b2, args.t2))
    rows = []
    failed = False
    for idx, (user, res) in enumerate(zip(users, _verify_users(spec, users, args.window)), start=1):
        if res.passed:
            rows.append((idx, user.burst, user.delay, "PASS", "", "", ""))
            print(f"user {idx} (B={user.burst}, T={user.delay}): PASS ({res.trials} trials)")
        else:
            failed = True
            ce = res.counterexample
            rows.append(
                (idx, user.burst, user.delay, "FAIL",
                 ce.burst_start, ce.burst_length, f"s{ce.symbol[1]}[{ce.symbol[0]}]")
            )
            print(
                f"user {idx} (B={user.burst}, T={user.delay}): FAIL at burst start "
                f"{ce.burst_start} length {ce.burst_length}, symbol {ce.symbol}"
            )
    if args.out:
        _emit(args, _csv_text(
            ("user", "burst", "delay", "verdict", "ce_start", "ce_length", "ce_symbol"),
            rows,
        ))
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def cmd_pec(args) -> int:
    if args.b2 is None:
        if args.variant not in ("auto", "single_user"):
            raise ValueError(f"variant {args.variant} needs a multicast point (--b2/--t2)")
        spec = construct_sco(ScoParams(args.b1, args.t1))
        pattern = make_periodic("single_user", (args.b1, args.t1))
        double_rule = None
    else:
        p = _params(args)
        # construct refuses the region-(f) interior and infeasible points
        # first, so every variant gives such a point the same error.
        spec = construct(p)
        variant = args.variant
        if variant == "single_user":
            raise ValueError("variant single_user takes no --b2/--t2")
        if variant == "auto":
            variant = region_schedule(p)
        pattern = make_periodic(variant, p)
        double_rule = (p.t1, p.t2) if variant == "region_f_T2B2" else None
    result = run_pec(spec, pattern, periods=args.periods, double_rule=double_rule)
    rows = result.report.to_csv_rows()
    for summary in result.summaries:
        counted = summary.counted_recovered
        unerased = summary.unerased_counted
        note = f" (+{summary.double_recovered} double)" if summary.double_recovered else ""
        print(
            f"period {summary.period_index}: erased {summary.erased}, recovered "
            f"{summary.recovered}{note}, revealed {summary.revealed}, "
            f"counted {counted} from {unerased} unerased -> ratio {_frac(Fraction(unerased, counted))}"
        )
    if args.out:
        _emit(args, _csv_text(("t", "row", "erased", "recovery_time"), rows))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error with exit 4, invalid parameters, instead of
    argparse's 2, the code of a failed verification.  Subparsers are built
    from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="burstfec",
        description="streaming erasure codes over burst channels: regions, capacities, codes, sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp, need_user1=True, need_user2=False):
        sp.add_argument("--b1", type=int, default=None, required=need_user1, help="user-1 burst length")
        sp.add_argument("--t1", type=int, default=None, required=need_user1, help="user-1 delay")
        sp.add_argument("--b2", type=int, default=None, required=need_user2, help="user-2 burst length")
        sp.add_argument("--t2", type=int, default=None, required=need_user2, help="user-2 delay")
        sp.add_argument("--out", default=None, help="write machine-readable output here")

    sp = sub.add_parser("classify", help="name the (B1,T1,B2,T2) region")
    add_params(sp, need_user2=True)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("capacity", help="capacity and upper bounds, point or sweep")
    add_params(sp, need_user1=False)
    sp.add_argument("--sweep", type=int, default=None, metavar="N", help="sweep all params in 1..N")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_capacity)

    sp = sub.add_parser("build", help="dump a constructed code in golden text form")
    add_params(sp)
    sp.add_argument("--field", choices=tuple(FIELDS), default=None)
    sp.add_argument("--method", choices=("auto", "ia-sco"), default="auto")
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("verify", help="exhaustive burst/deadline sweep, point or grid")
    add_params(sp, need_user1=False)
    sp.add_argument("--field", choices=tuple(FIELDS), default=None)
    sp.add_argument("--method", choices=("auto", "ia-sco"), default="auto")
    sp.add_argument("--window", type=int, default=None)
    sp.add_argument("--sweep", type=int, default=None, metavar="N",
                    help="verify every constructible point with params in 1..N")
    sp.add_argument("--jobs", type=int, default=1, help="worker processes for --sweep")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("pec", help="periodic-erasure-channel recovery schedule")
    add_params(sp)
    sp.add_argument(
        "--variant",
        choices=("auto", "single_user", "multicast_caseA", "multicast_caseB",
                 "region_e", "region_f1", "region_f_T2B2"),
        default="auto",
    )
    sp.add_argument("--periods", type=int, default=4)
    sp.set_defaults(func=cmd_pec)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.b2 is not None and args.t2 is None:
            raise ValueError("--b2 requires --t2")
        if args.t2 is not None and args.b2 is None:
            raise ValueError("--t2 requires --b2")
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except UnknownRegionError as exc:
        print(f"error: capacity open: {exc}", file=sys.stderr)
        return EXIT_OPEN_CAPACITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
