"""Result serialization: one CSV + one JSON per campaign, plus per-figure
plot series.  Writers only format fields; the single dB conversion already
happened during aggregation."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .campaign import CampaignResult, ResultRow

# The config document behind each `ris-scma sweep` figure; its scenario and
# any sweep axis are what emit_plot_data expects of a result.
FIGURE_PRESETS = {
    "fig2": {"scenario": "deploy_sweep", "num_elements": 32, "num_trials": 500},
    "fig4": {"scenario": "bits_sweep", "num_elements": 16, "num_trials": 2000},
    "fig5a": {"scenario": "convergence", "num_elements": 16, "num_trials": 2000},
    "fig5b": {"scenario": "n_sweep", "num_trials": 2000,
              "sweep": {"grid": [8, 16, 32, 64]},
              "algorithms": ["blind", "ao", "lc_ao", "no_ris"]},
    "fig6a": {"scenario": "complexity_grid",
              "sweep": {"axis": "num_elements", "grid": [4, 8, 16, 32, 64, 128]}},
    "fig6b": {"scenario": "complexity_grid", "num_elements": 32,
              "sweep": {"axis": "phase_bits", "grid": [1, 2, 3, 4, 5, 6]}},
}

CSV_HEADER = "axis_value,algorithm,mean_snr_db,stderr_db,real_adds,real_mults,trials"


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def result_to_csv_text(result: CampaignResult) -> str:
    columns = CSV_HEADER.split(",")
    lines = [CSV_HEADER] + [",".join(_fmt(getattr(row, key)) for key in columns)
                            for row in result.rows]
    return "\n".join(lines) + "\n"


def result_to_json_text(result: CampaignResult) -> str:
    return json.dumps(asdict(result), indent=2, sort_keys=True, allow_nan=False) + "\n"


def result_from_json_text(text: str) -> CampaignResult:
    doc = json.loads(text)
    return CampaignResult(**{
        **doc, "sweep_grid": tuple(doc["sweep_grid"]),
        "algorithms": tuple(doc["algorithms"]),
        "rows": tuple(ResultRow(**row) for row in doc["rows"])})


# Each output format and the text it writes to results.<format>.
OUTPUT_FORMATS = {"csv": result_to_csv_text, "json": result_to_json_text}


def write_results(result: CampaignResult, out_dir, formats=("csv", "json")) -> list:
    """Write results.<format> into ``out_dir`` for each of ``formats``;
    returns the paths.  Checks every format before writing anything."""
    for fmt in formats:
        if fmt not in OUTPUT_FORMATS:
            raise ValueError(f"unknown output format {fmt!r}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from None
    paths = []
    for fmt in formats:
        path = out / f"results.{fmt}"
        path.write_text(OUTPUT_FORMATS[fmt](result))
        paths.append(path)
    return paths


def emit_plot_data(result: CampaignResult, figure_id: str, out_dir) -> list:
    """One plot-ready CSV per algorithm series, axes matching the figure."""
    if figure_id not in FIGURE_PRESETS:
        raise ValueError(f"unknown figure id {figure_id!r}; "
                         f"choose from {sorted(FIGURE_PRESETS)}")
    preset = FIGURE_PRESETS[figure_id]
    if result.scenario != preset["scenario"]:
        raise ValueError(f"figure {figure_id} needs a {preset['scenario']!r} result, "
                         f"got {result.scenario!r}")
    axis = preset.get("sweep", {}).get("axis")
    if axis is not None and result.sweep_axis != axis:
        raise ValueError(f"figure {figure_id} sweeps {axis!r}, "
                         f"got {result.sweep_axis!r}")
    if not result.algorithms:
        raise ValueError("result has no algorithm series to plot")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = (("real_adds", "real_mults") if result.scenario == "complexity_grid"
               else ("mean_snr_db", "stderr_db"))
    paths = []
    for alg in result.algorithms:
        lines = [",".join((result.sweep_axis, *columns))]
        lines += [",".join(_fmt(getattr(r, key)) for key in ("axis_value", *columns))
                  for r in result.rows if r.algorithm == alg]
        path = out / f"{figure_id}_{alg}.csv"
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths
