"""Acceptance suite: one test per criterion, each printing a [criterion N]
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them live).

Criterion 7 is split in two: the saturation clauses, and the 1-bit clause.
The 1-bit clause once asserted that a 1-bit (sign-flip) optimizer matches
blind to within two paired standard errors.  The objective rules that out:
blind (all phases 0) lies in the 1-bit alphabet {-pi, 0}, so the exact 1-bit
optimum is at least blind, and on the paired draws it is far above it (+0.43
dB on the first 64 draws, 15 sigma; the ascent gets within 0.013 dB of it).
The clause now asserts blind <= 1-bit ascent <= exact 1-bit optimum per ORE
and a 1-bit gain over blind beyond two paired standard errors.
"""

import json
import math
from itertools import product

import numpy as np
import pytest

from ris_scma.campaign import run_campaign, trial_seed
from ris_scma.channel import (FadingConfig, Geometry, cascaded_path_loss,
                              direct_path_loss, draw_link_channels,
                              draw_trial_block, stack_realizations)
from ris_scma.config import campaign_from_config, config_hash, parse_config
from ris_scma.opcount import predicted_ao, predicted_lc_ao
from ris_scma.optimizer import (PhaseAlphabet, PhaseAssignment, ao_optimize,
                                blind_phases, db_from_linear, lc_ao_optimize,
                                no_ris_snr, received_snr)
from ris_scma.reference import (deploy_sweep_profile, exhaustive_optimize,
                                measured_run, snr_decomposition, term_split)

GEOM = Geometry(40.0, 1.5, 2.0, 2.4e9)
LIBRARY_FADING = FadingConfig()                       # random LoS, free-space direct
CALIBRATED_FADING = FadingConfig(los_phase="common", direct_loss_scale=0.0025)
COUNTED_MAX_ELEMENTS = 8      # criterion 1 also runs the scalar counted paths here


def _line(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# Criteria 1 and 3 share the same runs


@pytest.fixture(scope="module")
def equivalence_runs():
    combos = list(product((1, 2, 4, 8, 16), (1, 2, 3), (1, 3), (1, 4), (1, 3)))
    instances = 0
    counted_combos = 0
    mismatched_combos = []
    sequences = []
    for index, (n, b, df, r, t) in enumerate(combos):
        # Nine draws: five under library fading, then four calibrated.
        seeds = [trial_seed(20240811, 0, 9 * index + j) for j in range(1, 10)]
        ch = stack_realizations([
            draw_trial_block(seeds[:5], r, df, GEOM, LIBRARY_FADING, n),
            draw_trial_block(seeds[5:], r, df, GEOM, CALIBRATED_FADING, n)])
        instances += 9
        alpha = PhaseAlphabet.from_bits(b)
        log_ao, log_lc = [], []
        ao = ao_optimize(ch, alpha, t, update_log=log_ao)
        lc = lc_ao_optimize(ch, alpha, t, update_log=log_lc)
        selections = [ao.indices, lc.indices]
        if n <= COUNTED_MAX_ELEMENTS:
            # Both vectorized solvers run one kernel; the scalar counted paths
            # are the independent reference they must agree with.
            counted_combos += 1
            selections += [measured_run(kind, ch, alpha, t)[0]
                           for kind in ("ao", "lc_ao")]
        if not all(np.array_equal(ao.indices, sel) for sel in selections[1:]):
            mismatched_combos.append((n, b, df, r, t))
        for log in (log_ao, log_lc):
            sequences.append(np.array(log).T)
    return {"instances": instances, "mismatched": mismatched_combos,
            "counted_combos": counted_combos, "sequences": sequences}


def test_criterion_01_selection_equivalence(equivalence_runs):
    """Full-norm and cached selections are element-wise identical, and match
    both counted scalar paths wherever N <= COUNTED_MAX_ELEMENTS."""
    ok = not equivalence_runs["mismatched"]
    _line(1, ok, f"{equivalence_runs['instances']} instances across the "
                 f"N/b/d_f/R/T span, {equivalence_runs['counted_combos']} combos "
                 f"also against both counted paths; mismatching combos: "
                 f"{equivalence_runs['mismatched'] or 'none'}")
    assert equivalence_runs["instances"] >= 1000
    assert equivalence_runs["counted_combos"] > 0
    assert ok


def test_criterion_03_monotone_ascent(equivalence_runs):
    """The objective never decreases across any logged coordinate update."""
    worst = 0.0
    for seq in equivalence_runs["sequences"]:
        if seq.shape[1] < 2:
            continue
        prev = seq[:, :-1]
        cur = seq[:, 1:]
        drop = np.max(prev - cur, initial=0.0)
        rel = drop / max(np.abs(prev).max(), 1e-300)
        worst = max(worst, rel)
    ok = worst <= 1e-12
    updates = sum(s.size for s in equivalence_runs["sequences"])
    _line(3, ok, f"{updates} logged updates; worst relative decrease {worst:.2e} "
                 f"(tolerance 1e-12)")
    assert ok


def test_criterion_02_oracle_bound():
    """Exhaustive >= ascent >= blind per ORE; the optimality gap is recorded."""
    rng_seed = 0
    gaps_db = []
    violations = 0
    instances = 0
    for n, b in product((2, 3, 4), (1, 2)):
        alpha = PhaseAlphabet.from_bits(b)
        for k in range(90):
            rng_seed += 1
            fad = LIBRARY_FADING if k % 2 else CALIBRATED_FADING
            r = 1 if k % 3 else 4
            df = 3 if k % 2 else 1
            ch = draw_link_channels(
                np.random.default_rng(trial_seed(77, n * 10 + b, rng_seed)),
                r, df, GEOM, fad, n)
            instances += 1
            best = received_snr(ch, exhaustive_optimize(ch, alpha), fad)
            mid = received_snr(ch, ao_optimize(ch, alpha, 3), fad)
            low = received_snr(ch, blind_phases(alpha, r, n), fad)
            tol = 1e-12 * best
            if not ((best >= mid - tol).all() and (mid >= low - tol).all()):
                violations += 1
            gaps_db.extend(10.0 * np.log10(np.maximum(best, 1e-300)
                                           / np.maximum(mid, 1e-300)))
    gaps_db = np.array(gaps_db)
    edges = [0.0, 1e-9, 0.01, 0.05, 0.1, 0.25, 0.5, np.inf]
    hist, _ = np.histogram(gaps_db, bins=edges)
    ok = violations == 0
    _line(2, ok, f"{instances} instances; gap-to-oracle histogram (dB bins "
                 f"{edges[:-1]}): {hist.tolist()}; max gap {gaps_db.max():.4f} dB")
    assert instances >= 500
    assert ok


def test_criterion_04_decomposition_identities():
    """Quadratic + cross + direct addends reproduce the norm to 1e-10."""
    total_instances = 0
    worst_total, worst_split = 0.0, 0.0
    for (n, df) in ((2, 1), (4, 3), (8, 3), (3, 2)):
        ch = draw_link_channels(np.random.default_rng(trial_seed(4, n, df)),
                                2500, df, GEOM, LIBRARY_FADING, n)
        rng = np.random.default_rng(trial_seed(4, df, n))
        alpha = PhaseAlphabet.from_bits(3)
        phases = PhaseAssignment(alpha, rng.integers(0, 8, size=(2500, n)))
        total_instances += 2500
        quad, cross, direct = snr_decomposition(ch, phases)
        scale = LIBRARY_FADING.symbol_energy / LIBRARY_FADING.noise_variance
        ref = received_snr(ch, phases, LIBRARY_FADING)
        total_err = np.abs(scale * (quad + cross + direct) - ref) / np.abs(ref)
        worst_total = max(worst_total, float(total_err.max()))
        element = int(rng.integers(0, n))
        a1p, a1r, a2p, a2r = term_split(ch, phases, element)
        denom = max(float(np.abs(quad).max()), 1e-300)
        worst_split = max(worst_split, float(np.abs(a1p + a1r - quad).max() / denom))
        denom = max(float(np.abs(cross).max()), 1e-300)
        worst_split = max(worst_split, float(np.abs(a2p + a2r - cross).max() / denom))
    ok = worst_total <= 1e-10 and worst_split <= 1e-10
    _line(4, ok, f"{total_instances} instances; worst total-identity error "
                 f"{worst_total:.2e}, worst split-identity error {worst_split:.2e} "
                 f"(tolerance 1e-10)")
    assert ok


def test_criterion_05_complexity_exact_match():
    """Instrumented tallies equal the closed forms as integers, full grid."""
    mismatches = []
    cells = 0
    for r, n, b, df, t in product((1, 4), (1, 2, 8, 16), (1, 2, 3), (1, 3), (1, 3)):
        ch = draw_link_channels(np.random.default_rng(trial_seed(5, cells, 0)),
                                r, df, GEOM, LIBRARY_FADING, n)
        alpha = PhaseAlphabet.from_bits(b)
        cells += 1
        for kind, predict in (("ao", predicted_ao), ("lc_ao", predicted_lc_ao)):
            _, got = measured_run(kind, ch, alpha, t)
            want = predict(r, n, b, df, t)
            if got != want:
                mismatches.append((kind, r, n, b, df, t))
    spot_ok = (predicted_ao(4, 16, 3, 3).real_additions == 117_248
               and predicted_lc_ao(4, 16, 3, 3).real_additions == 26_112)
    ok = not mismatches and spot_ok
    _line(5, ok, f"{cells} grid cells x 2 algorithms, exact integer match; "
                 f"spot values RA_AO=117248 RA_LC=26112 verified; "
                 f"mismatches: {mismatches or 'none'}")
    assert ok


@pytest.mark.slow
def test_criterion_06_n_sweep_gain_anchors():
    """Optimized-minus-blind average gain hits the reported anchors."""
    doc = {"scenario": "n_sweep", "sweep": {"grid": [16, 64]},
           "num_trials": 10_000, "algorithms": ["blind", "ao"], "workers": 2}
    cfg = parse_config(json.dumps(doc))
    result = run_campaign(campaign_from_config(cfg))
    gains = {}
    for n in (16, 64):
        rows = {r.algorithm: r for r in result.rows if r.axis_value == n}
        gains[n] = rows["ao"].mean_snr_db - rows["blind"].mean_snr_db
    ok16 = abs(gains[16] - 1.88) <= 0.3
    ok64 = abs(gains[64] - 2.38) <= 0.3
    _line(6, ok16 and ok64,
          f"gain(N=16) = {gains[16]:.3f} dB (target 1.88 +- 0.3), "
          f"gain(N=64) = {gains[64]:.3f} dB (target 2.38 +- 0.3), "
          f"10^4 paired trials")
    assert ok16 and ok64


# Draws scored by the exact 1-bit optimum: 2^16 candidates per ORE, ~3 s.
ORACLE_TRIALS = 16


@pytest.fixture(scope="module")
def bits_sweep_paired():
    """Per-ORE linear SNRs, shape (trials, 4), at N=16 for b = 1..4 plus
    blind, all algorithms sharing every channel draw; ``head`` holds the
    stacked channels of the first ORACLE_TRIALS draws."""
    trials, n, t = 4000, 16, 3
    fad = CALIBRATED_FADING
    alphas = {b: PhaseAlphabet.from_bits(b) for b in (1, 2, 3, 4)}
    acc = {b: [] for b in alphas}
    acc["blind"] = []
    batch = 256

    def draw(lo, hi):
        return draw_trial_block([trial_seed(7_000, 0, i) for i in range(lo, hi)],
                                4, 3, GEOM, fad, n)

    for start in range(0, trials, batch):
        stop = min(start + batch, trials)
        ch = draw(start, stop)
        num = stop - start
        for b, alpha in alphas.items():
            lin = received_snr(ch, ao_optimize(ch, alpha, t), fad)
            acc[b].append(lin.reshape(num, 4))
        blind = blind_phases(alphas[1], ch.num_ores, n)
        lin = received_snr(ch, blind, fad)
        acc["blind"].append(lin.reshape(num, 4))
    out = {k: np.concatenate(v) for k, v in acc.items()}
    out["head"] = draw(0, ORACLE_TRIALS)
    return out


def test_criterion_07_quantization_saturation(bits_sweep_paired):
    """Gains saturate in the alphabet size: monotone on b in {2,3,4} and the
    3->4 bit step is < 0.15 dB (also smaller than the 1->2 bit step)."""
    g = {b: db_from_linear(bits_sweep_paired[b].mean()) for b in (1, 2, 3, 4)}
    monotone = g[2] <= g[3] <= g[4]
    step34 = g[4] - g[3]
    step12 = g[2] - g[1]
    ok = monotone and step34 < 0.15 and step34 < step12
    _line("7 (saturation)", ok,
          f"Gamma(b): " + ", ".join(f"b={b}: {g[b]:.3f} dB" for b in g)
          + f"; step 3->4 = {step34:.3f} dB (< 0.15), step 1->2 = {step12:.3f} dB")
    assert ok


def test_criterion_07_one_bit_matches_blind(bits_sweep_paired):
    """The sign-flip (1-bit) optimizer sits between blind and the exact 1-bit
    optimum, and gains over blind.

    Blind (all phases 0) is a point of the 1-bit alphabet {-pi, 0} and the
    ascent starts there, so blind <= ascent <= optimum must hold per ORE
    (checked to a relative 1e-12: for all 4000 draws against blind, for the
    first ORACLE_TRIALS draws against ``exhaustive_optimize``).  The clause
    this replaces asserted that 1-bit matches blind within two paired
    standard errors, which no solver of this objective can meet: on the
    first 64 draws the exact 1-bit optimum is 0.427 dB above blind (15
    sigma) and the ascent reaches 0.414 dB.  What is asserted instead is
    that the 1-bit gain over blind exceeds two paired standard errors.
    """
    one_bit = bits_sweep_paired[1]
    blind = bits_sweep_paired["blind"]
    head = bits_sweep_paired["head"]
    alpha = PhaseAlphabet.from_bits(1)
    oracle = received_snr(head, exhaustive_optimize(head, alpha),
                          CALIBRATED_FADING)
    oracle = oracle.reshape(ORACLE_TRIALS, 4)
    head_bit, head_blind = one_bit[:ORACLE_TRIALS], blind[:ORACLE_TRIALS]

    above_blind = bool((one_bit >= blind * (1.0 - 1e-12)).all())
    below_oracle = bool((head_bit <= oracle * (1.0 + 1e-12)).all())
    gain_db = db_from_linear(one_bit.mean()) - db_from_linear(blind.mean())
    one_bit_trial, blind_trial = one_bit.mean(axis=1), blind.mean(axis=1)
    paired = one_bit_trial / one_bit_trial.mean() - blind_trial / blind_trial.mean()
    se_db = 10.0 / np.log(10.0) * paired.std(ddof=1) / np.sqrt(paired.size)
    oracle_db = db_from_linear(oracle.mean()) - db_from_linear(head_blind.mean())
    head_db = db_from_linear(head_bit.mean()) - db_from_linear(head_blind.mean())
    ok = above_blind and below_oracle and gain_db > 2.0 * se_db
    _line("7 (b=1 vs blind)", ok,
          f"Gamma(b=1) - Gamma(blind) = {gain_db:.3f} dB, paired standard "
          f"error {se_db:.4f} dB ({gain_db / se_db:.0f} sigma, > 2); first "
          f"{ORACLE_TRIALS} draws: ascent {head_db:.3f} dB, exact 1-bit optimum "
          f"{oracle_db:.3f} dB, gap {oracle_db - head_db:.3f} dB; per ORE "
          f"blind <= ascent: {above_blind}, ascent <= optimum: {below_oracle}")
    assert ok


@pytest.mark.slow
def test_criterion_08_deployment_shape():
    """Endpoint-high, middle-low SNR profile over the panel offset."""
    all_ok = True
    details = []
    for n in (16, 32, 64):
        doc = {"scenario": "deploy_sweep", "num_trials": 300,
               "num_elements": n, "algorithms": ["blind", "ao"], "workers": 2}
        cfg = parse_config(json.dumps(doc))
        result = run_campaign(campaign_from_config(cfg))
        profile = deploy_sweep_profile(result, algorithm="ao")
        all_ok = all_ok and profile.is_endpoint_high
        details.append(f"N={n}: min at d0={profile.interior_min_offset:g} m, "
                       f"best at {profile.argmax_offsets} m")
    _line(8, all_ok, "; ".join(details))
    assert all_ok


def test_criterion_09_convergence():
    """Gamma(T) never decreases and T=3 sits within 0.05 dB of T=6."""
    doc = {"scenario": "convergence", "num_trials": 3000, "num_elements": 16,
           "algorithms": ["ao"], "workers": 2}
    cfg = parse_config(json.dumps(doc))
    result = run_campaign(campaign_from_config(cfg))
    curve = {int(r.axis_value): r.mean_snr_db for r in result.rows}
    values = [curve[t] for t in sorted(curve)]
    monotone = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    gap = abs(curve[3] - curve[6])
    ok = monotone and gap < 0.05
    _line(9, ok, f"Gamma(T) = " + ", ".join(f"T={t}: {curve[t]:.4f}" for t in sorted(curve))
          + f"; |Gamma(3) - Gamma(6)| = {gap:.4f} dB (< 0.05)")
    assert ok


def test_criterion_10_byte_determinism(tmp_path):
    """Identical seed and config give byte-identical outputs, for any
    worker count, when the config hash is taken without ``workers`` (as
    here).  Through the CLI ``workers`` is part of the hashed document, so
    only ``results.csv`` is byte-identical across worker counts there."""
    from ris_scma.writers import write_results
    doc = {"scenario": "n_sweep", "sweep": {"grid": [4, 8]}, "num_trials": 90,
           "num_elements": 8, "algorithms": ["blind", "ao", "lc_ao"]}
    outs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 3)):
        cfg = parse_config(json.dumps({**doc, "workers": workers}))
        result = run_campaign(campaign_from_config(cfg),
                              config_hash=config_hash(parse_config(json.dumps(doc))))
        outs.append([p.read_bytes() for p in
                     write_results(result, tmp_path / tag)])
    same_rerun = outs[0] == outs[1]
    same_workers = outs[0] == outs[2]
    ok = same_rerun and same_workers
    _line(10, ok, f"rerun bytes identical: {same_rerun}; "
                  f"1-vs-3 workers identical: {same_workers}")
    assert ok


# ---------------------------------------------------------------------------
# Closed-form second moments of the channel model
#
# Every small-scale coefficient is unit power with LoS amplitude
# l = sqrt(K / (K + 1)); its mean is l under common LoS and 0 under random
# LoS.  With P_d = direct_path_loss, P_c = cascaded_path_loss and s =
# direct_loss_scale, the blind composite row (all phases 0) has
#   E||w||^2 = d_f [P_d s + N P_c + N(N-1) P_c l^4 + 2 N sqrt(P_d s P_c) l^3]
# under common LoS and d_f (P_d s + N P_c) under random LoS, and the direct
# link alone E||h||^2 = d_f P_d s.  Each cell's tolerance is |z| < 4 from the
# standard error of its ORE rows, which are i.i.d.

MOMENT_CELLS = list(product(("common", "random"), (1.0, 4.0), (0.0025, 1.0), (16, 64)))
MOMENT_TRIALS, MOMENT_ORES, MOMENT_DF = 256, 4, 3


def _blind_moment(los_phase, k, s, n):
    pd, pc = direct_path_loss(GEOM) * s, cascaded_path_loss(GEOM)
    if los_phase == "random":
        return MOMENT_DF * (pd + n * pc)
    los = math.sqrt(k / (k + 1.0))
    return MOMENT_DF * (pd + n * pc + n * (n - 1) * pc * los**4
                        + 2 * n * math.sqrt(pd * pc) * los**3)


def _z(samples, expected):
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    return float((samples.mean() - expected) / se)


@pytest.fixture(scope="module")
def moment_samples():
    """Per cell, the blind and the no-RIS squared norms of every ORE row."""
    alpha = PhaseAlphabet.from_bits(1)
    out = {}
    for index, (los_phase, k, s, n) in enumerate(MOMENT_CELLS):
        fad = FadingConfig(rician_factor=k, los_phase=los_phase, direct_loss_scale=s)
        seeds = [trial_seed(20261019, index, i) for i in range(MOMENT_TRIALS)]
        ch = draw_trial_block(seeds, MOMENT_ORES, MOMENT_DF, GEOM, fad, n)
        scale = fad.symbol_energy / fad.noise_variance
        blind = received_snr(ch, blind_phases(alpha, ch.num_ores, n), fad) / scale
        out[los_phase, k, s, n] = blind, no_ris_snr(ch, fad) / scale
    return out


def test_blind_second_moment_matches_closed_form(moment_samples):
    z = {cell: _z(blind, _blind_moment(*cell))
         for cell, (blind, _) in moment_samples.items()}
    print(f"blind E||w||^2: max |z| = {max(map(abs, z.values())):.2f} "
          f"over {len(z)} cells")
    assert all(abs(v) < 4.0 for v in z.values()), z


def test_no_ris_second_moment_matches_closed_form(moment_samples):
    z = {cell: _z(direct, MOMENT_DF * direct_path_loss(GEOM) * cell[2])
         for cell, (_, direct) in moment_samples.items()}
    print(f"no-RIS E||h||^2: max |z| = {max(map(abs, z.values())):.2f} "
          f"over {len(z)} cells")
    assert all(abs(v) < 4.0 for v in z.values()), z
