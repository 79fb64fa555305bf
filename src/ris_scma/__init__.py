"""Discrete phase-shift optimization for an uplink RIS-assisted SCMA link.

Library layout: :mod:`~ris_scma.factor_graph` (sparse user/ORE structure),
:mod:`~ris_scma.channel` (geometry, path loss, Rician draws),
:mod:`~ris_scma.optimizer` (received-SNR objective; blind, coordinate-ascent,
cached, and exhaustive solvers), :mod:`~ris_scma.opcount` (real-arithmetic
accounting), :mod:`~ris_scma.campaign` (seeded Monte Carlo experiments),
:mod:`~ris_scma.config` / :mod:`~ris_scma.writers` / :mod:`~ris_scma.cli`
(config documents, result files, command line).
"""

from .campaign import (Campaign, CampaignResult, DeploymentProfile, ResultRow,
                       deploy_sweep_profile, run_campaign, trial_seed)
from .channel import (ChannelRealization, FadingConfig, Geometry,
                      cascaded_path_loss, direct_path_loss, draw_channels,
                      draw_link_channels, draw_trial_block, stack_realizations)
from .config import (ConfigError, RunConfig, campaign_from_config,
                     config_from_document, config_hash, parse_config,
                     serialize_config)
from .factor_graph import FactorGraph, ScmaConfig, build_factor_graph
from .opcount import (OpCount, measured_run, norm_eval_cost, predicted_ao,
                      predicted_exhaustive, predicted_lc_ao)
from .optimizer import (DEFAULT_EXHAUSTIVE_BUDGET, LcAoWorkspace,
                        PhaseAlphabet, PhaseAssignment, SnrReport,
                        UpdateRecord, ao_optimize, blind_phases,
                        build_lc_workspace, composite_channel, db_from_linear,
                        exhaustive_optimize, lc_ao_optimize, no_ris_snr,
                        received_snr, snr_decomposition, term_split)
from .writers import (emit_plot_data, result_from_json_text,
                      result_to_csv_text, result_to_json_text, write_results)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
