"""Causal time-invariant systematic streaming codes as explicit tap sets.

A code with ``n_source`` source rows emits, at each time step i, the source
vector s[i] followed by parity sub-symbols; parity row r is

    sum over taps (row, delay, coeff):  coeff * s_row[i - delay]

with the stream-start convention s[t] = 0 for t < 0.  Everything downstream
(constructions, simulator, golden files) is built out of four primitives on
parity rows: shift, causal truncation, tap-wise combination and
concatenation.  Combination cancels duplicate taps eagerly, so tap-set
equality is a canonical form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .algebra import FIELDS, GF2, FieldSpec


@dataclass(frozen=True, order=True)
class Tap:
    """One term of a parity row: references s_row[i - delay] with coeff.

    Negative delays are allowed only transiently, while a shifted row is
    waiting for causal truncation; an encodable spec rejects them.
    """

    source_row: int
    delay: int
    coeff: int = 1


@dataclass(frozen=True)
class ParityRow:
    taps: tuple[Tap, ...]

    def shifted(self, delta: int) -> "ParityRow":
        return ParityRow(tuple(Tap(t.source_row, t.delay + delta, t.coeff) for t in self.taps))

    @property
    def max_delay(self) -> int:
        return max((t.delay for t in self.taps), default=0)


def make_row(taps: Iterable[Tap], field: FieldSpec = GF2) -> ParityRow:
    """Canonical parity row: merge taps on the same (row, delay), drop the
    ones whose coefficients cancel, sort by (row, delay)."""
    size = field.size
    acc: dict[tuple[int, int], int] = {}
    for t in taps:
        coeff = t.coeff
        if not 0 <= coeff < size:
            raise ValueError(f"value {coeff} outside GF(2^{field.order_exponent})")
        key = (t.source_row, t.delay)
        acc[key] = acc.get(key, 0) ^ coeff  # characteristic 2: addition is XOR
    # Keys are unique, so sorting the items orders by (row, delay) alone.
    return ParityRow(tuple(Tap(r, d, c) for (r, d), c in sorted(acc.items()) if c))


def combine_rows(a: ParityRow, b: ParityRow, field: FieldSpec = GF2) -> ParityRow:
    """Tap-wise field addition; over GF(2) this is the symmetric difference
    of the tap sets."""
    return make_row(a.taps + b.taps, field)


def concat_rows(a: Sequence[ParityRow], b: Sequence[ParityRow]) -> tuple[ParityRow, ...]:
    return tuple(a) + tuple(b)


def shift_rows(rows: Sequence[ParityRow], delta: int) -> tuple[ParityRow, ...]:
    """Delay every tap by ``delta`` (negative = advance).  Taps pushed to
    negative delays are retained for a later causal truncation."""
    return tuple(r.shifted(delta) for r in rows)


def causal_truncate(rows: Sequence[ParityRow]) -> tuple[ParityRow, ...]:
    """Drop every tap with delay < 0 (the non-causal part of a shifted row)."""
    return tuple(ParityRow(tuple(t for t in r.taps if t.delay >= 0)) for r in rows)


def noncausal_part(rows: Sequence[ParityRow]) -> tuple[ParityRow, ...]:
    """The taps causal_truncate would drop, kept with their negative delays."""
    return tuple(ParityRow(tuple(t for t in r.taps if t.delay < 0)) for r in rows)


def compose_rows(
    outer: Sequence[ParityRow], inner: Sequence[ParityRow], field: FieldSpec = GF2
) -> tuple[ParityRow, ...]:
    """Expand rows whose "source rows" are themselves parity rows.

    An outer tap (w, d, c) referencing inner parity row w becomes the inner
    row's taps delayed by d and scaled by c.  Used when a construction
    applies a block code on top of another code's parity stream.
    """
    out = []
    for row in outer:
        taps = []
        for t in row.taps:
            for it in inner[t.source_row].taps:
                taps.append(Tap(it.source_row, it.delay + t.delay, field.mul(t.coeff, it.coeff)))
        out.append(make_row(taps, field))
    return tuple(out)


@dataclass(frozen=True)
class StreamingCodeSpec:
    """Systematic streaming code: n_source source rows plus parity rows."""

    field: FieldSpec
    n_source: int
    parity_rows: tuple[ParityRow, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_source < 1:
            raise ValueError("need at least one source row")
        for row in self.parity_rows:
            for t in row.taps:
                if t.delay < 0:
                    raise ValueError(f"non-causal tap {t} in encodable spec")
                if not 0 <= t.source_row < self.n_source:
                    raise ValueError(f"tap row {t.source_row} out of range")
                if not 0 < t.coeff < self.field.size:
                    raise ValueError(f"tap coefficient {t.coeff} invalid")

    @property
    def n_parity(self) -> int:
        return len(self.parity_rows)

    @cached_property
    def memory(self) -> int:
        """The largest tap delay, 0 without taps.  Computed on first read and
        kept in the instance, outside the fields, so equality, hashing and
        pickling see the same spec either way."""
        return max((r.max_delay for r in self.parity_rows), default=0)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.n_source, self.n_source + self.n_parity)


SourceStream = Sequence[Sequence[int]]
ChannelStream = list


def check_symbols(symbols: Sequence, times: Sequence[int], width: int, size: int, what: str) -> list[bytes]:
    """One byte string per position of ``symbols``, the symbols at ``times``,
    once they are checked.

    Raises ``ValueError`` naming the first symbol whose width is not
    ``width``, or else the first (t, position) whose value lies outside
    [0, ``size``); ``what`` names the symbols in the message.  The common
    case costs one ``bytes`` per position.
    """
    if set(map(len, symbols)) - {width}:
        t, n = next((t, len(sym)) for t, sym in zip(times, symbols) if len(sym) != width)
        raise ValueError(f"{what} symbol at time {t} has {n} positions, not {width}")
    try:
        columns = [bytes(column) for column in zip(*symbols)]
    except (TypeError, ValueError):  # a value that is no byte
        columns = None
    if columns is None or any(max(c) >= size for c in columns):
        t, pos, v = next(
            (t, pos, v)
            for t, sym in zip(times, symbols)
            for pos, v in enumerate(sym)
            if not (isinstance(v, int) and 0 <= v < size)
        )
        raise ValueError(f"{what} value {v!r} at {(t, pos)} outside [0, {size})")
    return columns


def encode(spec: StreamingCodeSpec, src: SourceStream, horizon: int) -> ChannelStream:
    """Channel symbols for t in [0, horizon): systematic copy of s[t]
    followed by the parity rows, with s[t < 0] = 0.

    A parity row is the XOR of its taps' source columns, each a byte string
    over time scaled by one ``FieldSpec.scale`` translate, read as an int
    and shifted ``delay`` bytes later.  Raises ``ValueError`` naming the
    first (t, row) whose source value lies outside [0, field size), and
    on a source symbol whose width is not ``n_source``.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    field = spec.field
    padded = list(src)[:horizon]
    padded.extend([(0,) * spec.n_source] * (horizon - len(padded)))
    columns = check_symbols(padded, range(horizon), spec.n_source, field.size, "source")
    mask = (1 << (8 * horizon)) - 1
    parity = []
    for prow in spec.parity_rows:
        acc = 0
        for tap in prow.taps:
            column = columns[tap.source_row]
            if tap.coeff != 1:
                column = column.translate(field.scale[field.log[tap.coeff]])
            acc ^= int.from_bytes(column, "little") << (8 * tap.delay)
        parity.append((acc & mask).to_bytes(horizon, "little"))
    return list(zip(*columns, *parity))


# -- canonical text form (the golden-file format) ---------------------------

def _tap_text(tap: Tap) -> str:
    prefix = "" if tap.coeff == 1 else f"{tap.coeff}*"
    return f"{prefix}s{tap.source_row}[i-{tap.delay}]"


def spec_to_text(spec: StreamingCodeSpec) -> str:
    """One line per parity row, taps sorted by (source_row, delay).

    The leading ``field``/``sources`` lines make the dump self-contained so
    it parses back into an identically-encoding spec.
    """
    lines = [
        "field " + next(name for name, field in FIELDS.items() if field == spec.field),
        f"sources {spec.n_source}",
    ]
    for row in spec.parity_rows:
        taps = " + ".join(_tap_text(t) for t in sorted(row.taps))
        lines.append(f"parity {taps}" if taps else "parity 0")
    return "\n".join(lines) + "\n"


_TAP_TEXT = re.compile(r"(?:(\d+)\s*\*\s*)?s(\d+)\[i-(\d+)\]")


def _taps_from_text(rest: str) -> list[Tap]:
    if rest == "0":
        return []
    taps = []
    for term in re.split(r"\+(?![^\[]*\])", rest):  # a '+' inside [...] is no separator
        match = _TAP_TEXT.fullmatch(term.strip())
        if match is None:
            raise ValueError(f"bad tap {term.strip()!r}, expected [c*]s<row>[i-<delay>]")
        coeff, row, delay = match.groups()
        taps.append(Tap(int(row), int(delay), int(coeff or 1)))
    return taps


def spec_from_text(text: str, label: str = "") -> StreamingCodeSpec:
    """Parse the canonical text form; a malformed line raises a
    ``ValueError`` naming its line number."""
    field = GF2
    n_source = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if kind == "field":
                if rest not in FIELDS:
                    raise ValueError(f"unknown field {rest!r}, expected one of {sorted(FIELDS)}")
                field = FIELDS[rest]
            elif kind == "sources":
                if not rest.isdigit():
                    raise ValueError(f"source count {rest!r} is not a number")
                n_source = int(rest)
            elif kind == "parity":
                rows.append(make_row(_taps_from_text(rest), field))
            else:
                raise ValueError(f"unrecognized line: {line!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if n_source is None:
        raise ValueError("missing 'sources' line")
    return StreamingCodeSpec(field, n_source, tuple(rows), label)
