import json
import time
import tracemalloc
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_scma import campaign as campaign_module
from ris_scma.campaign import SCENARIOS, SWEEPS, run_campaign
from ris_scma.cli import main
from ris_scma.config import (DEFAULTS, ConfigError, campaign_from_config,
                             config_from_document, config_hash, parse_config,
                             serialize_config)
from ris_scma.writers import (emit_plot_data, result_from_json_text,
                              result_to_json_text, write_results)


def test_empty_document_gives_reference_defaults():
    cfg = parse_config("")
    assert cfg.campaign.scma.num_users == 6
    assert cfg.campaign.scma.num_ores == 4
    assert cfg.campaign.scma.nonzero_per_ore == 3
    assert cfg.campaign.scma.nonzero_per_user == 2
    assert cfg.campaign.scma.codebook_size == 2
    assert cfg.campaign.phase_bits == 3
    assert cfg.campaign.num_iterations == 3
    assert cfg.campaign.geometry.bs_user_distance == 40.0
    assert cfg.campaign.geometry.ris_perpendicular_offset == 1.5
    assert cfg.campaign.geometry.ris_horizontal_offset == 2.0
    assert cfg.campaign.geometry.carrier_frequency == 2.4e9
    assert cfg.campaign.fading.rician_factor == 1.0
    assert cfg.campaign.num_trials == 10_000


def test_whitespace_document_equals_empty():
    assert parse_config("  \n\t ") == parse_config("")


def test_unknown_keys_rejected_by_name():
    with pytest.raises(ConfigError, match="'phase_bitz'"):
        parse_config('{"phase_bitz": 3}')
    with pytest.raises(ConfigError, match="'geometry.altitude'"):
        parse_config('{"geometry": {"altitude": 10}}')


def test_domain_violations_name_the_field():
    with pytest.raises(ConfigError, match="phase_bits"):
        parse_config('{"phase_bits": 0}')
    with pytest.raises(ConfigError, match="ris_horizontal_offset"):
        parse_config('{"geometry": {"ris_horizontal_offset": 45.0}}')
    with pytest.raises(ConfigError, match="rician_factor"):
        parse_config('{"fading": {"rician_factor": -2}}')
    with pytest.raises(ConfigError, match="scenario"):
        parse_config('{"scenario": "volume_sweep"}')


def test_parse_error_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config('{\n  "scenario": oops\n}')


def test_round_trip_identity():
    texts = ["", '{"scenario": "bits_sweep", "num_trials": 17}',
             '{"scenario": "deploy_sweep", "fading": {"rician_factor": 2.5}}']
    for text in texts:
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)


def test_axis_grid_validation():
    with pytest.raises(ConfigError, match="sweep.axis"):
        parse_config('{"scenario": "n_sweep", "sweep": {"axis": "phase_bits"}}')
    with pytest.raises(ConfigError, match="integers"):
        parse_config('{"scenario": "n_sweep", "sweep": {"grid": [4.5, 8]}}')
    cfg = parse_config('{"scenario": "complexity_grid", '
                       '"sweep": {"axis": "phase_bits", "grid": [1, 2, 3]}}')
    assert cfg.campaign.algorithms == ("ao", "lc_ao")


# No golden config leaves its grid out, so these hashes are what pins each
# scenario's default axis and grid.
@pytest.mark.parametrize("doc, digest", [
    ({"scenario": "deploy_sweep"},
     "88ee4c42d6b762bf7a4b7c7258513ead9d037d1ac9d3c4afbbeb37d492abf4e4"),
    ({"scenario": "bits_sweep"},
     "6281596df3e6525b2927033b34c4ca3071ad7e9aab219c9195e0506eb7a9d894"),
    ({"scenario": "n_sweep"},
     "cd4781a1115a9e4110155250c656f185c2ea10356e361a8e0ee079d460c12942"),
    ({"scenario": "convergence"},
     "ad2b3258f1f4ac8e39d6ab89d3f39567b36fe9c216a831c56ab03b0270154278"),
    ({"scenario": "complexity_grid"},
     "ad0ca6a9f52ea04a523c74252ef02bb53d59da6fde988af5780b1cacdd0b3715"),
    ({"scenario": "complexity_grid", "sweep": {"axis": "phase_bits"}},
     "8924a06473772cac71edbec99a2bad50d3315ec0fde504b3275e0e973c4f60e8"),
], ids=[*SCENARIOS, "complexity_grid_phase_bits"])
def test_default_documents_keep_their_hash(doc, digest):
    assert config_hash(config_from_document(doc)) == digest


@pytest.mark.parametrize("grid", [{}, {"grid": [1, 2]}], ids=["default_grid", "given_grid"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_axis_outside_the_table_is_refused_by_name(scenario, grid):
    # Another scenario's axis, so only the table can refuse it.
    axis = next(a for axes in SWEEPS.values() for a in axes
                if a not in SWEEPS[scenario])
    with pytest.raises(ConfigError, match=f"got sweep_axis '{axis}'"):
        config_from_document({"scenario": scenario, "sweep": {"axis": axis, **grid}})


@pytest.mark.parametrize("text, key", [
    ('{"phase_bits": "3"}', "'phase_bits'"),
    ('{"sweep": {"grid": 16}}', "'sweep.grid'"),
    ('{"num_trials": 2.5}', "'num_trials'"),
    ('{"num_elements": true}', "'num_elements'"),
    ('{"algorithms": "ao"}', "'algorithms'"),
    ('{"sweep": {"axis": 3}}', "'sweep.axis'"),
    ('{"sweep": {"grid": [true, 2]}}', "'sweep.grid'"),
    ('{"fading": {"rician_factor": "1"}}', "'fading.rician_factor'"),
    ('{"fading": {"noise_variance": NaN}}', "'fading.noise_variance'"),
    ('{"output": {"formats": "csv"}}', "'output.formats'"),
    ('{"geometry": 40}', "'geometry'"),
])
def test_wrongly_typed_values_rejected_by_key(text, key, tmp_path, capsys):
    with pytest.raises(ConfigError, match=key):
        parse_config(text)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["type"] == "config"
    assert key in json.loads(err[0])["error"]["message"]


def test_duplicate_output_format_rejected(tmp_path, capsys):
    # A repeated format would write its file twice and print its path twice.
    text = '{"output": {"formats": ["csv", "csv", "json"]}}'
    with pytest.raises(ConfigError, match="output.formats: format 'csv'"):
        parse_config(text)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out_dir.exists()
    error = json.loads(captured.err)["error"]
    assert error["type"] == "config" and "output.formats" in error["message"]


def test_number_keys_take_integers():
    cfg = parse_config('{"fading": {"rician_factor": 2}, '
                       '"scenario": "deploy_sweep", "sweep": {"grid": [2, 5]}}')
    assert cfg.campaign.fading.rician_factor == 2
    assert cfg.campaign.sweep_grid == (2.0, 5.0)


def test_large_layout_builds_no_factor_graph():
    # R = 800, d_v = 2: U = C(800, 2) = 319600 users on d_f = 799 each.  The
    # incidence matrix alone would be 256 MB; validation builds none.
    text = json.dumps({"system": {"num_users": 319_600, "num_ores": 800,
                                  "nonzero_per_user": 2, "nonzero_per_ore": 799}})
    tracemalloc.start()
    try:
        start = time.perf_counter()
        campaign = campaign_from_config(parse_config(text))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert campaign.scma.num_users == 319_600
    assert elapsed < 1.0 and peak < 2**20


def _integer_keys(default, path=()):
    """The dotted paths of every integer key of the document."""
    if isinstance(default, dict):
        return [key for name, sub in default.items()
                for key in _integer_keys(sub, path + (name,))]
    return [path] if type(default) is int else []


INTEGER_KEYS = _integer_keys(DEFAULTS)
HUGE = st.integers(-1, 10**40)


@st.composite
def bounded_documents(draw):
    """A scenario and axis, integer keys and an integer sweep grid up to
    10^40, and sometimes a valid layout U = C(R, d_v) with R up to 10^40."""
    scenario = draw(st.sampled_from(SCENARIOS))
    doc = {"scenario": scenario, "sweep": {
        "axis": draw(st.sampled_from(tuple(SWEEPS[scenario]))),
        "grid": sorted(draw(st.lists(HUGE, min_size=1, max_size=4, unique=True)))}}
    if scenario != "complexity_grid":
        doc["algorithms"] = draw(st.sampled_from(
            [["blind", "ao", "lc_ao"], ["blind", "exhaustive"], ["no_ris"]]))
    for path in draw(st.lists(st.sampled_from(INTEGER_KEYS), unique=True)):
        parent = doc
        for name in path[:-1]:
            parent = parent.setdefault(name, {})
        parent[path[-1]] = draw(HUGE)
    if draw(st.booleans()):
        j = draw(st.integers(2, 4))
        r = draw(st.integers(j + 1, 10**40))
        dv = draw(st.sampled_from([j, r - j]))     # C(R, R - j) = C(R, j)
        doc["system"] = {"num_users": comb(r, dv), "num_ores": r,
                         "nonzero_per_user": dv, "nonzero_per_ore": comb(r - 1, dv - 1)}
    return doc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=bounded_documents())
def test_every_document_builds_or_is_refused_within_a_second(doc):
    # No integer, however large, makes validation do work that grows with
    # it: each document is built or refused at once, and no channel is drawn.
    text = json.dumps(doc)
    with mock.patch.object(campaign_module, "draw_trial_block",
                           side_effect=AssertionError("a campaign ran")):
        start = time.perf_counter()
        try:
            campaign_from_config(parse_config(text))
        except ConfigError:
            pass
        assert time.perf_counter() - start < 1.0


@pytest.fixture(scope="module")
def small_result():
    cfg = parse_config(json.dumps({
        "scenario": "n_sweep", "sweep": {"grid": [2, 4]}, "num_trials": 30,
        "num_elements": 4, "algorithms": ["blind", "ao"]}))
    return run_campaign(campaign_from_config(cfg), config_hash=config_hash(cfg))


def test_write_results_byte_stable(small_result, tmp_path):
    first = write_results(small_result, tmp_path / "a")
    second = write_results(small_result, tmp_path / "b")
    for p1, p2 in zip(first, second):
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("formats", [("xml",), ("csv", "xml")])
def test_refused_format_writes_nothing(small_result, tmp_path, formats):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="'xml'"):
        write_results(small_result, out, formats)
    assert not out.exists()


def test_csv_axis_ascending(small_result, tmp_path):
    (csv_path, _) = write_results(small_result, tmp_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "axis_value,algorithm,mean_snr_db,stderr_db,real_adds,real_mults,trials"
    axis = [float(line.split(",")[0]) for line in lines[1:]]
    assert axis == sorted(axis)


def test_json_reingest_equals_memory(small_result):
    text = result_to_json_text(small_result)
    assert result_from_json_text(text) == small_result


def test_config_hash_recorded(small_result):
    assert len(small_result.config_hash) == 64


def test_emit_plot_data_series(small_result, tmp_path):
    paths = emit_plot_data(small_result, "fig5b", tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["fig5b_ao.csv", "fig5b_blind.csv"]
    header = paths[0].read_text().splitlines()[0]
    assert header == "num_elements,mean_snr_db,stderr_db"


def test_emit_plot_data_scenario_mismatch(small_result, tmp_path):
    with pytest.raises(ValueError, match="deploy_sweep"):
        emit_plot_data(small_result, "fig2", tmp_path)
    with pytest.raises(ValueError, match="unknown figure"):
        emit_plot_data(small_result, "fig9", tmp_path)


def test_emit_plot_data_complexity_axes(tmp_path):
    cfg = parse_config('{"scenario": "complexity_grid", '
                       '"sweep": {"axis": "num_elements", "grid": [4, 8]}}')
    result = run_campaign(campaign_from_config(cfg))
    paths = emit_plot_data(result, "fig6a", tmp_path)
    body = paths[0].read_text().splitlines()
    assert body[0] == "num_elements,real_adds,real_mults"
    with pytest.raises(ValueError, match="fig6b sweeps"):
        emit_plot_data(result, "fig6b", tmp_path)


def test_emit_plot_data_no_algorithms(small_result, tmp_path):
    from dataclasses import replace
    empty = replace(small_result, algorithms=(), rows=())
    with pytest.raises(ValueError, match="no algorithm"):
        emit_plot_data(empty, "fig5b", tmp_path)


def test_complexity_grid_rows_have_empty_snr(tmp_path):
    cfg = parse_config('{"scenario": "complexity_grid", "sweep": {"grid": [4, 8]}}')
    result = run_campaign(campaign_from_config(cfg))
    assert all(r.mean_snr_db is None for r in result.rows)
    csv_path, json_path = write_results(result, tmp_path)
    line = csv_path.read_text().splitlines()[1]
    assert line.split(",")[2] == ""   # empty SNR cell
    assert result_from_json_text(json_path.read_text()) == result


def test_non_finite_results_rejected(small_result):
    # Without a direct link the no-RIS SNR is identically 0 (-inf dB).
    with pytest.raises(ConfigError, match="no_ris"):
        parse_config('{"algorithms": ["blind", "no_ris"], '
                     '"fading": {"direct_loss_scale": 0}}')
    parse_config('{"algorithms": ["blind", "ao"], "fading": {"direct_loss_scale": 0}}')
    from dataclasses import replace
    rows = (replace(small_result.rows[0], mean_snr_db=float("-inf")),)
    with pytest.raises(ValueError, match="JSON compliant"):
        result_to_json_text(replace(small_result, rows=rows))
