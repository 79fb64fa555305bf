"""Workload definitions, reference digests and the output checks.

Every workload is a campaign config document over the calibrated defaults
(R=4 OREs, d_f=3, b=3, common-phase LoS, direct link at 0.0025).  The
benchmark seed becomes the config's ``master_seed``; nothing else depends on
it.  The checks here use only the standard library: they read the bytes the
program wrote and never call back into it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

# Seed at which the result bytes are compared with the recorded digests.  It
# is the library's own default master seed.
DEFAULT_SEED = 12345

# The reported ao - blind gains (dB) at N = 16 / 64, and the tolerance the
# paper-reproduction acceptance test allows around them.
GAIN_ANCHORS_DB = {16.0: 1.88, 64.0: 2.38}
GAIN_TOLERANCE_DB = 0.3

# Calibrated-default dimensions the operation counts depend on.
NUM_ORES = 4
NUM_INTERFERERS = 3
PHASE_BITS = 3
NUM_ITERATIONS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    doc: dict               # config document without master_seed

    @property
    def workers(self) -> int:
        return self.doc["workers"]

    def config_text(self, seed: int) -> str:
        return json.dumps({**self.doc, "master_seed": seed}, indent=2,
                          sort_keys=True) + "\n"


# Why each workload exists, and what should move on it, is in BENCHMARK.json
# and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "paper_nsweep",
        {"scenario": "n_sweep", "sweep": {"grid": [16, 64]},
         "algorithms": ["blind", "ao", "lc_ao", "no_ris"],
         "num_trials": 256, "workers": 1}),
    Workload(
        "convergence_fig5a",
        {"scenario": "convergence", "num_elements": 16,
         "sweep": {"grid": [1, 2, 3, 4, 5, 6]},
         "algorithms": ["blind", "ao", "lc_ao"],
         "num_trials": 256, "workers": 1}),
    Workload(
        "draw_bound_deploy",
        {"scenario": "deploy_sweep", "num_elements": 8,
         "sweep": {"grid": [2.0, 5.0, 10.0, 20.0, 30.0, 35.0, 38.0]},
         "algorithms": ["blind", "lc_ao", "no_ris"],
         "num_trials": 4096, "workers": 2}),
    Workload(
        "large_n_cached",
        {"scenario": "n_sweep", "sweep": {"grid": [128, 256]},
         "algorithms": ["blind", "lc_ao"],
         "num_trials": 256, "workers": 1}),
)}

# sha256 of results.csv / results.json written by `ris_scma.cli run` on each
# workload's config at DEFAULT_SEED, recorded with numpy 2.4.6 on an x86-64
# Xeon.  The output directory is passed by flag, so the config hash inside
# results.json does not depend on where the run happens.
REFERENCE_DIGESTS = {
    "paper_nsweep": {
        "csv": "8296ba44f22c3c5ca3d4f78b4d61e9e161ed4a023aca016e66bb05518bbcc13c",
        "json": "fe0249d8a1642681873a4f192e0efd43c0a72b8f8bed00098240f6fefeb7df0b"},
    "convergence_fig5a": {
        "csv": "ef02bb594cceab22ebeb4cbebf2cf15e10a31f069ef88c9641f63c94e4ae46ed",
        "json": "145dba3d120c3edf8b99bcffa4f3d8d5e4fdb2716bd7b53a8dd8ba399c22b45f"},
    "draw_bound_deploy": {
        "csv": "eecbd8482055051f9842d22c2eb042767fece6a804b0a226faacce06d3922932",
        "json": "6f695949f4b4755bd9978d8676b5b7bbfbf56b699055107ca467d538eedcd496"},
    "large_n_cached": {
        "csv": "37552b21a1b4dfe3bad7cf7e38f1a3e41208ecc25ce888aa47f813a7173fe556",
        "json": "718248f94af84d25777ef221f93217b902cdb9fe6571836943e1e13f2739e0c3"},
}


def predicted_ops(algorithm: str, n: int, t: int) -> tuple:
    """(real adds, real mults) of one ao / lc_ao run on one realization,
    from the closed forms of the paper's cost model (complex multiply =
    4 mults + 2 adds, complex add = 2 adds, squared magnitude = 2 mults +
    1 add)."""
    r, b, df = NUM_ORES, PHASE_BITS, NUM_INTERFERERS
    if algorithm == "ao":
        evals = r * n * 2**b * t
        return (evals * (2 * n * (2 * df + 1) + 2 * df - 1),
                evals * (4 * n * (df + 1) + 2 * df))
    return (r * n * (2**(b + 1) + n * (8 * df + 1) - 2 * (df + 1)) * t,
            r * n * (2**(b + 2) + 4 * n * (3 * df + 1) - 4 * (df + 1)) * t)


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in results.json")


def _point_dims(workload: Workload, axis_value: float) -> tuple:
    """(N, T) at one grid point of the workload."""
    scenario = workload.doc["scenario"]
    n = int(axis_value) if scenario == "n_sweep" else workload.doc["num_elements"]
    t = int(axis_value) if scenario == "convergence" else NUM_ITERATIONS
    return n, t


def check_outputs(workload: Workload, seed: int, csv_bytes: bytes,
                  json_bytes: bytes) -> list:
    """Reasons the written results are wrong; empty when they pass."""
    try:
        doc = json.loads(json_bytes, parse_constant=_reject_constant)
        rows = {(row["axis_value"], row["algorithm"]): row for row in doc["rows"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"results.json: {exc!r}"]
    problems = []
    expected = {(float(x), alg) for x in workload.doc["sweep"]["grid"]
                for alg in workload.doc["algorithms"]}
    if set(rows) != expected or len(doc["rows"]) != len(expected):
        return [f"results.json rows {sorted(rows)} != {sorted(expected)}"]
    for (axis_value, alg), row in rows.items():
        if row["trials"] != workload.doc["num_trials"]:
            problems.append(f"{alg}@{axis_value}: {row['trials']} trials")
        if alg in ("ao", "lc_ao"):
            n, t = _point_dims(workload, axis_value)
            want = predicted_ops(alg, n, t)
            got = (row["real_adds"], row["real_mults"])
            if got != want:
                problems.append(f"{alg}@{axis_value}: op counts {got} != {want}")
        if alg == "ao" and (axis_value, "lc_ao") in rows:
            other = rows[(axis_value, "lc_ao")]
            for key in ("mean_linear", "stderr_db"):
                if row[key] != other[key]:
                    problems.append(f"ao/lc_ao {key} differ at {axis_value}: "
                                    f"{row[key]!r} vs {other[key]!r}")
    if workload.name == "paper_nsweep":
        for axis_value, anchor in GAIN_ANCHORS_DB.items():
            gain = (rows[(axis_value, "ao")]["mean_snr_db"]
                    - rows[(axis_value, "blind")]["mean_snr_db"])
            if abs(gain - anchor) > GAIN_TOLERANCE_DB:
                problems.append(f"ao-blind gain {gain:.3f} dB at N={axis_value:g} "
                                f"outside {anchor} +- {GAIN_TOLERANCE_DB}")
    if seed == DEFAULT_SEED:
        ref = REFERENCE_DIGESTS[workload.name]
        for kind, data in (("csv", csv_bytes), ("json", json_bytes)):
            digest = hashlib.sha256(data).hexdigest()
            if digest != ref[kind]:
                problems.append(f"results.{kind} sha256 {digest} != reference {ref[kind]}")
    return problems
