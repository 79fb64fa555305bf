"""Discrete phase-shift optimization for an uplink RIS-assisted SCMA link.

Library layout: :mod:`~ris_scma.factor_graph` (sparse user/ORE structure),
:mod:`~ris_scma.channel` (geometry, path loss, Rician draws),
:mod:`~ris_scma.optimizer` (received-SNR objective; blind, coordinate-ascent
and cached solvers), :mod:`~ris_scma.opcount` (closed-form real-arithmetic
counts), :mod:`~ris_scma.campaign` (seeded Monte Carlo experiments),
:mod:`~ris_scma.config` / :mod:`~ris_scma.writers` / :mod:`~ris_scma.cli`
(config documents, result files, command line), and
:mod:`~ris_scma.reference` (the counted scalar ascent, the objective's
decomposition, the exhaustive oracle and the deployment-curve summary: what
the tests check the library against, and what a campaign run never imports).

Every name below is imported from its module on first use (PEP 562), so
``import ris_scma`` loads no submodule and ``import ris_scma.cli`` loads only
the modules a run needs.
"""

import importlib

# Each public name, by the module that defines it.
_EXPORTS = {
    "campaign": ("Campaign", "CampaignResult", "ResultRow", "run_campaign",
                 "trial_seed"),
    "channel": ("ChannelRealization", "FadingConfig", "Geometry",
                "cascaded_path_loss", "direct_path_loss", "draw_channels",
                "draw_link_channels", "draw_trial_block", "stack_realizations"),
    "config": ("ConfigError", "RunConfig", "campaign_from_config",
               "config_from_document", "config_hash", "parse_config",
               "serialize_config"),
    "factor_graph": ("FactorGraph", "ScmaConfig", "build_factor_graph"),
    "opcount": ("OpCount", "predicted_ao", "predicted_exhaustive",
                "predicted_lc_ao"),
    "optimizer": ("DEFAULT_EXHAUSTIVE_BUDGET", "LcAoWorkspace", "PhaseAlphabet",
                  "PhaseAssignment", "ao_optimize", "blind_phases",
                  "build_lc_workspace", "composite_channel", "db_from_linear",
                  "lc_ao_optimize", "no_ris_snr", "received_snr"),
    "reference": ("DeploymentProfile", "deploy_sweep_profile",
                  "exhaustive_optimize", "measured_run", "snr_decomposition",
                  "term_split"),
    "writers": ("emit_plot_data", "result_from_json_text", "result_to_csv_text",
                "result_to_json_text", "write_results"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# The submodules that ``__all__`` names as well.
_SUBMODULES = ("campaign", "channel", "config", "factor_graph", "opcount",
               "optimizer", "writers")

__all__ = sorted([*_MODULE_OF, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name, or a submodule, on first use."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
