"""Low-delay burst-erasure block codes (the diagonal-interleaving primitive).

A (T, B) block code takes source symbols s_0..s_{T-1} and emits B parities
p_j = s_j + h_j(s_B, ..., s_{T-1}); the codeword (s_0..s_{T-1}, p_0..p_{B-1})
must survive every length-B erasure burst (wrap-around included) with each
erased s_i determined from codeword positions <= min(i + T, T + B - 1).

The combination h_j is not pinned down by theory we can cite at desk scale,
so construction is verification-driven: a small ladder of binary tap
patterns is tried first (the ones that reproduce the worked examples all our
golden tables are built from), and pairs with no passing binary pattern
escalate to GF(2^8) with Vandermonde coefficients.  Whatever is returned has
passed :func:`verify_ldbebc` exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import GF2, GF256, FieldSpec, IncrementalSolver
from .code_model import ParityRow, Tap, make_row

ParityDef = tuple[tuple[int, int], ...]  # ((source index, coeff), ...)


class ConstructionError(ValueError):
    """No candidate coefficient assignment passed exhaustive verification."""


@dataclass(frozen=True)
class BlockCodeSpec:
    T: int
    B: int
    field: FieldSpec
    parity_defs: tuple[ParityDef, ...]
    pattern: str = ""

    def __post_init__(self) -> None:
        if not 1 <= self.B <= self.T:
            raise ValueError(f"need 1 <= B <= T, got B={self.B}, T={self.T}")
        if len(self.parity_defs) != self.B:
            raise ValueError("wrong number of parity definitions")

    @property
    def length(self) -> int:
        return self.T + self.B

    def diagonal_rows(self, factor: int = 1) -> tuple[ParityRow, ...]:
        """The code laid along the stream diagonals: parity row j at time i
        combines s_l[i - factor * (T + j - l)] for every tap l of parity j."""
        return tuple(
            make_row((Tap(l, factor * (self.T + j - l), c) for l, c in taps), self.field)
            for j, taps in enumerate(self.parity_defs)
        )

    @cached_property
    def rows(self) -> tuple[ParityRow, ...]:
        """The main-diagonal rows, built on first use and then shared by
        every spec laid from this block."""
        return self.diagonal_rows()

    @property
    def rate(self) -> Fraction:
        return Fraction(self.T, self.T + self.B)


@dataclass(frozen=True)
class BlockVerifyReport:
    violations: tuple[tuple[int, int], ...]  # (burst start, source index)

    @property
    def ok(self) -> bool:
        return not self.violations


def _deadline(i: int, T: int, B: int) -> int:
    # Last usable codeword position for s_i (0-based, inclusive).  The
    # min(i + T, T + B) bound caps at the block end.
    return min(i + T, T + B - 1)


def verify_ldbebc(spec: BlockCodeSpec) -> BlockVerifyReport:
    """Erase every cyclic burst of length B and check each erased source
    symbol is uniquely determined from the unerased prefix ending at its
    deadline."""
    T, B, n = spec.T, spec.B, spec.length
    violations = []
    for start in range(n):
        erased = {(start + o) % n for o in range(B)}
        erased_sources = sorted(i for i in erased if i < T)
        if not erased_sources:
            continue
        solver = IncrementalSolver(spec.field)
        col = {i: c for c, i in enumerate(erased_sources)}
        recovered_at: dict[int, int] = {}
        # Known sources are constants, never unknowns: only the unerased
        # parities give equations.
        for pos in range(T, n):
            if pos in erased:
                continue
            eq = {}
            for src, coeff in spec.parity_defs[pos - T]:
                if src in col:
                    eq[col[src]] = spec.field.add(eq.get(col[src], 0), coeff)
            eq = {c: v for c, v in eq.items() if v}
            if not eq:
                continue
            # rhs is irrelevant for determinedness; use 0 (the all-zero
            # codeword is consistent with any pattern of knowns = 0).
            for c, _ in solver.add_equation(eq, 0):
                recovered_at.setdefault(erased_sources[c], pos)
        for i in erased_sources:
            pos = recovered_at.get(i)
            if pos is None or pos > _deadline(i, T, B):
                violations.append((start, i))
    return BlockVerifyReport(tuple(violations))


# -- candidate binary tap patterns ------------------------------------------


def _pattern_paired_mopup(B: int, T: int) -> tuple[ParityDef, ...]:
    # T < 2B: the first T-B parities pair with one tail symbol each, the
    # rest absorb the whole tail.  Reproduces the worked (1,2), (2,3), (3,5),
    # (4,5) and repetition examples.
    u = T - B
    defs = []
    for j in range(B):
        taps = [(j, 1)]
        if j < u:
            taps.append((B + j, 1))
        else:
            taps.extend((l, 1) for l in range(B, T))
        defs.append(tuple(taps))
    return tuple(defs)


def _pattern_window(B: int, T: int) -> tuple[ParityDef, ...]:
    # T >= 2B: parity j covers the tail window [B+j, T-B+j].
    defs = []
    for j in range(B):
        taps = [(j, 1)] + [(l, 1) for l in range(B + j, T - B + j + 1)]
        defs.append(tuple(taps))
    return tuple(defs)


def _pattern_mod_pairing(B: int, T: int) -> tuple[ParityDef, ...]:
    u = T - B
    defs = []
    for j in range(B):
        taps = [(j, 1)]
        if u:
            taps.append((B + (j % u), 1))
        defs.append(tuple(taps))
    return tuple(defs)


def _vandermonde_defs(B: int, T: int, salt: int) -> tuple[ParityDef, ...]:
    # Full tail support with GF(2^8) coefficients x^(salt * j * k), x = 2.
    defs = []
    for j in range(B):
        taps = [(j, 1)]
        for k, l in enumerate(range(B, T)):
            taps.append((l, GF256.exp[(salt * j * k) % 255]))
        defs.append(tuple(taps))
    return tuple(defs)


def candidate_patterns(B: int, T: int):
    if T < 2 * B:
        yield "paired-mopup", _pattern_paired_mopup(B, T)
    else:
        yield "window", _pattern_window(B, T)
    if T != B:
        yield "mod-pairing", _pattern_mod_pairing(B, T)


@lru_cache(maxsize=None)
def construct_ldbebc(B: int, T: int, field: FieldSpec | None = None) -> BlockCodeSpec:
    """Build a verified (T, B) block code.

    ``field=None`` (or GF(2)) tries the binary patterns and escalates to
    GF(2^8) only when none verifies; passing GF(2^8) explicitly skips the
    binary attempts.  Raises :class:`ConstructionError` when nothing passes.

    Each (B, T, field) is built and verified once per process: the frozen
    result, with the diagonal rows it builds on first use, is shared by
    every caller, while a failure is not cached and is raised again on
    every call.
    """
    if not 1 <= B <= T:
        raise ConstructionError(f"infeasible block parameters B={B}, T={T}")
    tried = []
    if field is None or field == GF2:
        for name, defs in candidate_patterns(B, T):
            spec = BlockCodeSpec(T, B, GF2, defs, name)
            if verify_ldbebc(spec).ok:
                return spec
            tried.append(name)
        if field == GF2:
            raise ConstructionError(
                f"no binary pattern verifies for (B={B}, T={T}); tried {tried}"
            )
    for salt in (1, 2, 3, 5, 7):
        defs = _vandermonde_defs(B, T, salt)
        spec = BlockCodeSpec(T, B, GF256, defs, f"vandermonde-{salt}")
        if verify_ldbebc(spec).ok:
            return spec
        tried.append(f"vandermonde-{salt}")
    raise ConstructionError(f"no coefficient assignment verifies for (B={B}, T={T}); tried {tried}")
