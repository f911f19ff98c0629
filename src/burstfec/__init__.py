"""Streaming erasure codes for burst channels, single-user and two-receiver.

Core surface:

- :mod:`burstfec.algebra` -- GF(2) and GF(2^8) arithmetic and exact elimination
- :mod:`burstfec.code_model` -- tap-set code specs, encoder, golden text form
- :mod:`burstfec.ldbebc` -- the low-delay block-code primitive
- :mod:`burstfec.sco` -- single-user codes by diagonal interleaving
- :mod:`burstfec.musco` -- two-receiver regions, capacities, constructions
- :mod:`burstfec.channel_sim` -- erasure channels, universal decoder, sweeps
- :mod:`burstfec.cli` -- command-line front end
"""

from .algebra import GF2, GF256, FieldSpec
from .code_model import (
    ParityRow,
    StreamingCodeSpec,
    Tap,
    causal_truncate,
    combine_rows,
    concat_rows,
    encode,
    make_row,
    shift_rows,
    spec_from_text,
    spec_to_text,
)
from .ldbebc import BlockCodeSpec, ConstructionError, construct_ldbebc, verify_ldbebc
from .sco import InfeasibleParamsError, ScoParams, construct_sco, single_user_capacity
from .musco import (
    CapacityResult,
    MulticastParams,
    NonIntegerAlphaError,
    Region,
    UnknownRegionError,
    capacity,
    classify,
    construct,
    construct_ia_sco,
    constructible,
    source_expand,
    upper_bound_cu,
    upper_bound_pec,
)
from .channel_sim import (
    DecodeReport,
    Periodic,
    SingleBurst,
    UserSpec,
    apply_channel,
    generic_decode,
    make_periodic,
    region_e_structured_decode,
    run_pec,
    verify_deadlines,
)

__all__ = [name for name in dir() if not name.startswith("_")]
