"""The region-(e) code's own layered decoding recipe, as a test reference.

Acceptance criterion 6 runs it beside the library's one decoder,
:func:`burstfec.channel_sim.generic_decode`, on full-length bursts on the
weaker user's channel.  It reads the construction's layer map
(:class:`burstfec.musco.RegionEPlan`) instead of eliminating generically, so
it checks the construction's decoding argument, not only its rank.
"""

from dataclasses import dataclass

from burstfec.algebra import IncrementalSolver
from burstfec.channel_sim import ERASED, SingleBurst
from burstfec.musco import _region_e_plan


class StructureMismatchError(ValueError):
    """The spec handed in was not produced by the region-(e) construction."""


@dataclass
class RegionEDecodeResult:
    recovered: dict  # (erased time, source row) -> (value, availability time)
    helper_recoveries: dict  # (c1 parity row index, time) -> availability time


def region_e_structured_decode(spec, params, received, burst: SingleBurst) -> RegionEDecodeResult:
    """Layered decode of a full-length burst on the weaker user's channel.

    Follows the construction's own recipe instead of generic elimination:
    (1) rebuild the missing layer-3 parity values from the helper parities
    riding in layer 4 (with their non-causal parts completed), checking the
    zero-delay property as it goes; (2)/(3) strip the recovered and the
    directly-computable interference from layers 3 and 4; (4) read the
    repetition copies to recover every erased source symbol at delay T2.
    """
    plan = _region_e_plan(params, spec.field)
    if plan.to_spec().parity_rows != spec.parity_rows or plan.params != params:
        raise StructureMismatchError("spec does not match the region-(e) plan")
    p = plan.params
    if burst.length != p.b2:
        raise StructureMismatchError(f"expected a burst of length B2={p.b2}")
    field = spec.field
    t1, t2, t3, k = p.t1, p.t2, plan.t3, plan.k
    sigma = burst.start
    i_end = sigma + p.b2  # first clean time after the burst
    n_src = spec.n_source
    l3_off, l4_off = n_src + k, n_src + p.b1

    def src_val(t: int, row: int) -> int:
        if t < 0:
            return 0
        sym = received[t]
        if sym is ERASED:
            raise StructureMismatchError(f"needed source s{row}[{t}] is erased")
        return sym[row]

    def row_value(prow, t: int) -> int:
        acc = 0
        for tap in prow.taps:
            acc = field.add(acc, field.mul(tap.coeff, src_val(t - tap.delay, tap.source_row)))
        return acc

    def w_from_sources(j: int, t: int) -> tuple[int, int]:
        """(value, availability) of c1 parity row j at time t, via unerased
        sources only."""
        prow = plan.c1_rows[j]
        avail = max((t - tap.delay for tap in prow.taps), default=t)
        return row_value(prow, t), max(avail, 0)

    # Step 1a: layer-3 reads before the missing window give w directly.
    w_val: dict[tuple[int, int], int] = {}
    w_avail: dict[tuple[int, int], int] = {}
    for t in range(i_end, i_end + t3):
        for idx in range(t3):
            rep = src_val(t - t2, idx)
            val = field.sub(received[t][l3_off + idx], rep)
            w_val[(k + idx, t)] = val
            w_avail[(k + idx, t)] = t

    # Step 1b..1e: helper equations pin down w over the missing window.
    missing = [
        (k + idx, t)
        for t in range(i_end + t3, i_end + t1)
        for idx in range(t3)
    ]
    helper_recoveries: dict[tuple[int, int], int] = {}
    if missing:
        col = {key: c for c, key in enumerate(missing)}
        solver = IncrementalSolver(field)
        equations = []
        for t in range(i_end, i_end + t3):
            for ell, hrow in enumerate(plan.helper_w_rows):
                rep = src_val(t - t2, t3 + ell)
                tilde = field.sub(received[t][l4_off + ell], rep)
                # add back the non-causal taps the encoder dropped
                avail = t
                full = tilde
                for tap in plan.layer4_dropped[ell].taps:
                    ts = t - tap.delay  # delay < 0: a strictly later source
                    full = field.add(full, field.mul(tap.coeff, src_val(ts, tap.source_row)))
                    avail = max(avail, ts)
                eq: dict[int, int] = {}
                for tap in hrow.taps:
                    wt = t - tap.delay
                    key = (k + tap.source_row, wt)
                    if key in col:
                        c = col[key]
                        eq[c] = field.add(eq.get(c, 0), tap.coeff)
                    else:
                        if key not in w_val:
                            v, av = w_from_sources(*key)
                            w_val[key], w_avail[key] = v, av
                        full = field.sub(full, field.mul(tap.coeff, w_val[key]))
                        avail = max(avail, w_avail[key])
                eq = {c: v for c, v in eq.items() if v}
                if eq:
                    equations.append((avail, eq, full))
        equations.sort(key=lambda e: e[0])
        for avail, eq, rhs in equations:
            for c, value in solver.add_equation(eq, rhs):
                j, wt = missing[c]
                w_val[(j, wt)] = value
                w_avail[(j, wt)] = max(avail, w_avail.get((j, wt), 0))
                helper_recoveries[(j, wt)] = avail
        for j, wt in missing:
            if (j, wt) not in w_val:
                raise StructureMismatchError(
                    f"helper parities leave layer-3 value ({j},{wt}) undetermined"
                )
            if w_avail[(j, wt)] > wt:
                raise StructureMismatchError(
                    f"zero-delay recovery violated for layer-3 value ({j},{wt})"
                )

    def w_value_at(j: int, t: int) -> tuple[int, int]:
        key = (j, t)
        if key not in w_val:
            v, av = w_from_sources(j, t)
            w_val[key], w_avail[key] = v, av
        return w_val[key], w_avail[key]

    # Steps 2-4: strip interference at each repetition read and recover.
    recovered: dict[tuple[int, int], tuple[int, int]] = {}
    for tau in range(sigma, i_end):
        read_t = tau + t2
        if read_t >= len(received):
            raise StructureMismatchError("received stream too short for the T2 reads")
        for rho in range(n_src):
            if rho < t3:
                wv, wav = w_value_at(k + rho, read_t)
                value = field.sub(received[read_t][l3_off + rho], wv)
                when = max(read_t, wav)
            else:
                # The transmitted layer-4 part is causal(sum of w-taps).
                # Evaluate it from sources directly when they are all clean;
                # otherwise go through the helper values recovered in step 1
                # (sum of w values minus the dropped non-causal taps).
                ell = rho - t3
                acc = received[read_t][l4_off + ell]
                when = read_t
                causal = plan.layer4_causal[ell].taps
                if all(not burst.erased(read_t - tap.delay) for tap in causal):
                    for tap in causal:
                        acc = field.sub(
                            acc, field.mul(tap.coeff, src_val(read_t - tap.delay, tap.source_row))
                        )
                else:
                    for tap in plan.helper_w_rows[ell].taps:
                        wv, wav = w_value_at(k + tap.source_row, read_t - tap.delay)
                        acc = field.sub(acc, field.mul(tap.coeff, wv))
                        when = max(when, wav)
                    for tap in plan.layer4_dropped[ell].taps:
                        ts = read_t - tap.delay
                        acc = field.add(acc, field.mul(tap.coeff, src_val(ts, tap.source_row)))
                        when = max(when, ts)
                value = acc
            recovered[(tau, rho)] = (value, when)
    return RegionEDecodeResult(recovered, helper_recoveries)
