"""Link-level simulator for semi-blind joint channel and symbol estimation
with a hybrid reflecting/sensing reconfigurable surface."""

from .bs_rx import bs_bals, bs_channel_only, bs_kronf
from .coding import CodingSet, build_coding, design_krstc, design_phase_shifts, design_tstc, gen_symbols, qam_constellation
from .harness import (
    MetricsRecord,
    TrialOutcome,
    combined_channel,
    nmse,
    parse_pair,
    records_to_csv,
    run_sweep,
    run_trial,
    ser,
)
from .hris_rx import hris_bals, hris_kronf, hris_krf
from .identifiability import (
    feasible_subframes,
    feedback_bits,
    flops_estimate,
    min_subframes,
    pair_subframes,
)
from .rx_common import (
    AmbiguityError,
    EstimateReport,
    IdentifiabilityError,
    NonFiniteError,
    RankDeficiencyError,
    normalize_anchor,
)
from .scenario import ChannelRealization, ScenarioConfig, draw_channels, draw_noise, link_gains, path_loss

__version__ = "0.1.0"

__all__ = [
    "AmbiguityError",
    "ChannelRealization",
    "CodingSet",
    "EstimateReport",
    "IdentifiabilityError",
    "MetricsRecord",
    "NonFiniteError",
    "RankDeficiencyError",
    "ScenarioConfig",
    "TrialOutcome",
    "bs_bals",
    "bs_channel_only",
    "bs_kronf",
    "build_coding",
    "combined_channel",
    "design_krstc",
    "design_phase_shifts",
    "design_tstc",
    "draw_channels",
    "draw_noise",
    "feasible_subframes",
    "feedback_bits",
    "flops_estimate",
    "gen_symbols",
    "hris_bals",
    "hris_kronf",
    "hris_krf",
    "link_gains",
    "min_subframes",
    "nmse",
    "normalize_anchor",
    "pair_subframes",
    "parse_pair",
    "path_loss",
    "qam_constellation",
    "records_to_csv",
    "run_sweep",
    "run_trial",
    "ser",
]
