import dataclasses
import json
import math
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from sarsizer.adc import DESIGN_FIELDS
from sarsizer.cli import main as cli_main
from sarsizer.errors import ConfigError, PlanError
from sarsizer.pipeline import (
    _KNOWN_TOP_KEYS,
    RunConfig,
    audit_run,
    default_bounds,
    emit_report,
    load_config,
    load_design,
    run_pipeline,
    summary_from_record,
    summary_text,
    verification_plan,
)

SMALL_RUN = """
N: 8
fs: 1.0e6
V_DD: 1.0
seed: 7
global: {pop_size: 40, max_evals: 400}
local: {max_iter: 25}
harness: {K: 256, M: 4}
"""


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = load_config(SMALL_RUN, is_text=True)
    result = run_pipeline(cfg, out_dir=out)
    return cfg, result, out


class TestLoadConfig:
    def test_minimal_file_fills_defaults(self):
        cfg = load_config("{N: 12, fs: 20.0e6, V_DD: 1}", is_text=True)
        assert cfg.alpha == 1.0
        assert cfg.adc.n_bits == 12 and cfg.adc.f_s == 20e6
        assert cfg.seed == 0
        assert "alpha" in cfg.defaults_applied
        assert "bounds" in cfg.defaults_applied
        assert set(cfg.bounds) == set(default_bounds(cfg.adc))

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="n_bits"):
            load_config("{fs: 1e6, V_DD: 1}", is_text=True)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            load_config("{N: 8, fs: 1e6, V_DD: 1, alpha: -1}", is_text=True)

    def test_unknown_key_warns_not_fatal(self):
        # `workers` was a config key while process pools existed.
        with pytest.warns(UserWarning, match=r"\['frobnicate', 'workers'\]"):
            cfg = load_config(
                "{N: 8, fs: 1e6, V_DD: 1, frobnicate: true, workers: 4}", is_text=True
            )
        assert cfg.adc.n_bits == 8

    def test_bad_bounds_name_field(self):
        with pytest.raises(ConfigError, match="r_sw"):
            load_config(
                "{N: 8, fs: 1e6, V_DD: 1, bounds: {r_sw: [5, 2]}}", is_text=True
            )

    def test_unknown_bound_variable(self):
        with pytest.raises(ConfigError, match="w_over_l"):
            load_config(
                "{N: 8, fs: 1e6, V_DD: 1, bounds: {w_over_l: [1, 2]}}", is_text=True
            )

    def test_parse_error_mentions_source(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config("{N: 12, fs: [unclosed", is_text=True)

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "true", "7.0", "'7'"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            load_config(f"{{N: 8, fs: 1e6, V_DD: 1, seed: {seed}}}", is_text=True)

    def test_largest_seed_accepted(self):
        cfg = load_config("{N: 8, fs: 1e6, V_DD: 1, seed: 18446744073709551615}", is_text=True)
        assert cfg.seed == 2**64 - 1

    @pytest.mark.parametrize("section, key, value", [
        ("global", "pop_size", "'40'"),
        ("global", "pop_size", "true"),
        ("global", "pop_size", "40.5"),
        ("global", "pop_size", "4"),
        ("global", "k_infill", "2.5"),
        ("global", "k_infill", "0"),
        ("global", "k_infill", "false"),
        ("global", "n_conv_target", "'9'"),
        ("global", "n_conv_target", "-1"),
        ("global", "max_evals", "2.5"),
        ("global", "max_evals", "true"),
        ("global", "max_evals", "[50]"),
        ("harness", "K", "256.5"),
        ("harness", "K", "'256'"),
        ("harness", "M", "true"),
        ("harness", "verify_scale", "1.5"),
    ])
    def test_non_integer_counts_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            load_config(f"{{N: 8, fs: 1e6, V_DD: 1, {section}: {{{key}: {value}}}}}",
                        is_text=True)

    def test_integral_counts_accepted(self):
        cfg = load_config(
            "{N: 8, fs: 1e6, V_DD: 1, global: {pop_size: 40.0, max_evals: 2000, "
            "n_conv_target: 9, k_infill: 3}, harness: {K: 256, M: 4.0, verify_scale: 2}}",
            is_text=True,
        )
        g = cfg.global_params
        assert (g.pop_size, g.max_evals, g.n_conv_target, g.k_infill) == (40, 2000, 9, 3)
        assert type(g.pop_size) is int and type(cfg.harness.m_segments) is int
        assert (cfg.harness.k_points, cfg.harness.verify_scale) == (256, 2)

    def test_local_lambda_inf(self):
        cfg = load_config(
            "{N: 8, fs: 1e6, V_DD: 1, local: {lambda: inf}}", is_text=True
        )
        assert math.isinf(cfg.local_params.expensive_every)


    @pytest.mark.parametrize("override, name", [
        ({"bounds": {"c_unit": 5}}, "c_unit"),
        ({"bounds": {"c_unit": [1e-15, 2e-15, 3e-15]}}, "c_unit"),
        ({"bounds": {"c_unit": [1e-15, math.inf]}}, "c_unit"),
        ({"bounds": [1e-15, 2e-15]}, "bounds"),
        ({"fs": "abc"}, "f_s"),
        ({"fs": math.nan}, "f_s"),
        ({"V_DD": math.inf}, "v_dd"),
        ({"global": {"F": "abc"}}, "global.F"),
        ({"global": [1, 2]}, "global"),
        ({"local": "abc"}, "local"),
        ({"local": {"max_iter": 2.5}}, "local.max_iter"),
        ({"local": {"max_iter": True}}, "local.max_iter"),
        ({"local": {"max_iter": "7"}}, "local.max_iter"),
        ({"local": {"lambda": 2.5}}, "local.lambda"),
        ({"local": {"lambda": 0}}, "local.lambda"),
        ({"harness": {"noise": "false"}}, "harness.noise"),
        ({"out": 5}, "out"),
    ])
    def test_malformed_values_rejected(self, override, name):
        text = yaml.safe_dump({"N": 8, "fs": 1e6, "V_DD": 1.0, **override})
        with pytest.raises(ConfigError, match=name):
            load_config(text, is_text=True)

    def test_numeric_strings_and_integral_lambda_accepted(self):
        # PyYAML reads 1.0e6 as a string; lambda stays a float in the record
        cfg = load_config("{N: 8, fs: 1.0e6, V_DD: '1', local: {lambda: 3}}", is_text=True)
        assert (cfg.adc.f_s, cfg.adc.v_dd) == (1e6, 1.0)
        assert type(cfg.local_params.expensive_every) is float
        assert cfg.local_params.expensive_every == 3.0


NESTED_KEYS = DESIGN_FIELDS + (
    "pop_size", "F", "f_weight", "CR", "cr", "k_infill", "theta_conv", "n_conv_target",
    "max_evals", "lambda", "expensive_every", "delta_init", "a", "penalty_scale", "delta_w",
    "eps", "w0", "max_iter", "blend_at", "K", "k_points", "M", "m_segments",
    "f_target_frac", "amplitude_frac", "noise", "verify_scale",
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text("0123456789.e-+inaftrucdl", max_size=6))
LEAVES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3))
VALUES = st.one_of(LEAVES, st.dictionaries(
    st.one_of(st.sampled_from(NESTED_KEYS), st.text("abc", max_size=3)), LEAVES, max_size=4))


@settings(max_examples=300, deadline=None)
@given(overrides=st.dictionaries(st.sampled_from(sorted(_KNOWN_TOP_KEYS)), VALUES, max_size=6))
def test_load_config_returns_config_or_config_error(overrides):
    """Any mapping over the known keys loads or raises ConfigError, nothing else."""
    text = yaml.safe_dump({"N": 8, "fs": 1e6, "V_DD": 1.0, **overrides})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            cfg = load_config(text, is_text=True)
        except ConfigError:
            return
    assert isinstance(cfg, RunConfig)


class TestRunPipeline:
    def test_final_design_meets_every_coarse_constraint(self, small_run):
        _, result, _ = small_run
        assert result.coarse.feasible
        assert np.all(result.coarse.slack >= 0.0)

    def test_enob_close_to_resolution(self, small_run):
        _, result, _ = small_run
        assert result.spectrum.enob >= 8 - 1.5

    def test_record_reproducible_byte_identical(self, small_run, tmp_path):
        _, _, out = small_run
        cfg = load_config(SMALL_RUN, is_text=True)
        rerun_dir = tmp_path / "rerun"
        run_pipeline(cfg, out_dir=rerun_dir)
        assert (out / "run_record.json").read_bytes() == (
            rerun_dir / "run_record.json"
        ).read_bytes()

    def test_artifacts_written(self, small_run):
        _, result, out = small_run
        for name in result.trace_files.values():
            assert (out / name).exists()
        assert (out / "run_record.json").exists()
        assert (out / "timings.json").exists()
        assert (out / "summary.txt").exists()

    def test_record_has_no_wall_clock(self, small_run):
        _, _, out = small_run
        record = json.loads((out / "run_record.json").read_text())
        assert "phase_timings" not in json.dumps(record)
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {"derive", "global", "local", "verify"}

    def test_record_adc_block_is_the_whole_config(self, small_run):
        cfg, _, out = small_run
        record = json.loads((out / "run_record.json").read_text())
        assert record["config"]["adc"] == dataclasses.asdict(cfg.adc)

    def test_audit_recomputes_identically(self, small_run):
        _, _, out = small_run
        checks = audit_run(out)
        assert len(checks) >= 9

    @pytest.mark.parametrize("block, key, factor", [
        ("spectrum", "fom_w", 10.0),
        ("coarse", "power", 1.0 + 1e-9),
    ])
    def test_audit_catches_tampered_figures(self, small_run, tmp_path, block, key, factor):
        run_dir = shutil.copytree(small_run[2], tmp_path / "run")
        audit_run(run_dir)
        path = run_dir / "run_record.json"
        record = json.loads(path.read_text())
        record[block][key] *= factor
        path.write_text(json.dumps(record))
        with pytest.raises(ConfigError, match=key):
            audit_run(run_dir)

    def test_summary_cross_checks_metrics(self, small_run):
        _, result, _ = small_run
        text = summary_text(result)
        assert "FoM_W" in text and "FoM_S" in text
        enob = (result.spectrum.sndr_db - 1.76) / 6.02
        assert f"cross-check {enob:.3f}" in text

    def test_defaults_echoed_into_record(self, small_run):
        _, _, out = small_run
        record = json.loads((out / "run_record.json").read_text())
        assert "defaults_applied" in record["config"]

    def test_capture_matches_verification_plan_length(self, small_run):
        cfg, _, out = small_run
        plan = verification_plan(cfg.adc.f_s, cfg.adc.v_dd, cfg.harness, cfg.seed)
        rows = (out / "capture.csv").read_text().strip().split("\n")
        assert len(rows) - 1 == plan.k_points == 256 * 4

    @pytest.mark.parametrize(
        "harness", ["{K: 500}", "{verify_scale: 3}"], ids=["k_points", "verify_scale"]
    )
    def test_bad_harness_fails_before_evaluation(self, harness, monkeypatch):
        def no_eval(*args, **kwargs):
            raise AssertionError("evaluation started")

        monkeypatch.setattr("sarsizer.pipeline.run_global", no_eval)
        monkeypatch.setattr("sarsizer.pipeline.evaluate_coarse", no_eval)
        monkeypatch.setattr("sarsizer.problem.evaluate_coarse", no_eval)
        cfg = load_config(f"{{N: 8, fs: 1e6, V_DD: 1, harness: {harness}}}", is_text=True)
        with pytest.raises(PlanError):
            run_pipeline(cfg)

    def test_zero_budget_returns_initial_with_warning(self, tmp_path):
        cfg = load_config(
            "{N: 8, fs: 1.0e6, V_DD: 1, seed: 3, global: {max_evals: 0}}",
            is_text=True,
        )
        result = run_pipeline(cfg, out_dir=tmp_path / "degenerate")
        assert result.warning and "budget" in result.warning
        assert result.local_result is None
        assert "no iterations" in summary_text(result)

    def test_eval_log_one_row_per_archive_entry(self, small_run):
        _, result, out = small_run
        lines = (out / "eval_log.csv").read_text().strip().split("\n")
        assert len(lines) - 1 == len(result.global_state.archive)
        header = lines[0].split(",")
        assert header[0] == "candidate"
        assert header[1:9] == [
            "c_unit", "r_sw", "t_sample", "sigma_cmp",
            "t_d0", "tau_reg", "r_drv_msb", "t_dff",
        ]
        assert header[-1] == "power"
        first = lines[1].split(",")
        rec = result.global_state.archive[0]
        assert [float(v) for v in first[1:9]] == rec.x.tolist()
        assert float(first[-1]) == rec.objective


class TestEmitReport:
    def published_record(self):
        # the 12-bit column of the comparison table, reconstructed: the
        # summary must list FoM_S 177.3 dB and FoM_W 4.6 fJ
        from sarsizer.sndr import enob_from_sndr, fom_schreier, fom_walden

        sndr, power, f_s = 72.2, 308e-6, 20e6
        enob = enob_from_sndr(sndr)
        return {
            "config": {
                "adc": {"n_bits": 12, "f_s": f_s, "v_dd": 1.0},
                "alpha": 1.0,
                "seed": 0,
            },
            "design": {
                name: 1.0
                for name in (
                    "c_unit", "r_sw", "t_sample", "sigma_cmp",
                    "t_d0", "tau_reg", "r_drv_msb", "t_dff",
                )
            },
            "specs": {
                "ssre_bound": [1.0] * 11,
                "sampling_bound": 7.05e-5,
                "noise_bound": 7.05e-5,
                "sndr_ceiling": 67.99,
            },
            "coarse": {
                "sampling_error": 1e-6,
                "ssre": [0.0] * 11,
                "noise_rms": 5e-5,
                "power": power,
                "timing_ok": True,
                "feasible": True,
            },
            "spectrum": {
                "sndr_db": sndr,
                "sfdr_db": 89.3,
                "enob": enob,
                "fom_w": fom_walden(power, f_s, enob),
                "fom_s": fom_schreier(power, f_s, sndr),
            },
            "local": {"iterations": 42, "rollbacks": 1},
            "global": {"generations": 10, "evals": 500, "n_converged": 6},
            "warning": None,
        }

    def test_summary_lists_published_foms(self, tmp_path):
        record = self.published_record()
        files = emit_report(record, tmp_path)
        text = (tmp_path / files["summary"]).read_text()
        assert "FoM_S = 177.31 dB" in text
        assert "FoM_W = 4.6" in text
        # ENOB identity recomputed and cross-checked in the same line
        assert "ENOB  = 11.701 bits (cross-check 11.701)" in text
        metrics = (tmp_path / files["metrics"]).read_text()
        assert "sndr_db,72.2" in metrics

    def test_no_iterations_marker(self, tmp_path):
        record = self.published_record()
        record["local"] = None
        emit_report(record, tmp_path)
        assert "no iterations" in (tmp_path / "summary.txt").read_text()

    def test_summary_matches_record_based_formatter(self, small_run):
        _, result, out = small_run
        assert (out / "summary.txt").read_text() == summary_from_record(
            json.loads((out / "run_record.json").read_text())
        )


class TestDesignFiles:
    def test_round_trip(self, tmp_path, small_run):
        _, result, _ = small_run
        path = tmp_path / "design.json"
        path.write_text(json.dumps(result.design.to_dict()))
        loaded = load_design(path)
        assert loaded == result.design

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"c_unit": 1e-15}))
        with pytest.raises(ConfigError, match="missing"):
            load_design(path)

    def test_string_value_rejected(self, tmp_path, small_run):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**small_run[1].design.to_dict(), "r_sw": "abc"}))
        with pytest.raises(ConfigError, match="r_sw"):
            load_design(path)


class TestCli:
    @pytest.fixture()
    def cfg_file(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text(SMALL_RUN)
        return p

    def test_run_and_report(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "cli-run"
        rc = cli_main(["run", str(cfg_file), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "sizing run summary" in printed
        rc = cli_main(["report", str(out)])
        assert rc == 0
        assert "checks passed" in capsys.readouterr().out

    def test_run_exit_code_on_infeasible(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg12.yaml"
        cfg_file.write_text(
            "{N: 12, fs: 20.0e6, V_DD: 1.0, seed: 7, global: {pop_size: 10, max_evals: 10},"
            " local: {max_iter: 5}, harness: {K: 256, M: 4}}"
        )
        out = tmp_path / "cli-infeasible"
        rc = cli_main(["run", str(cfg_file), "--out", str(out)])
        assert rc == 1
        assert "all feasible   = False" in capsys.readouterr().out
        assert (out / "run_record.json").exists()

    def test_eval_and_sndr(self, tmp_path, cfg_file, small_run, capsys):
        _, result, _ = small_run
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps(result.design.to_dict()))

        rc = cli_main(["eval", str(cfg_file), "--design", str(design_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "feasible        = True" in out

        export = tmp_path / "sndr-out"
        rc = cli_main(
            ["sndr", str(cfg_file), "--design", str(design_path),
             "--segments", "2", "--export", str(export)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "SNDR" in out
        assert (export / "capture.csv").exists()
        assert (export / "spectrum.csv").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_bad_seed_override_fails_before_evaluation(self, cfg_file, seed, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("pipeline started")

        monkeypatch.setattr("sarsizer.cli.run_pipeline", no_run)
        with pytest.raises(ConfigError, match="seed"):
            cli_main(["run", str(cfg_file), "--seed", seed])

    def test_eval_exit_code_on_infeasible(self, tmp_path, cfg_file, capsys):
        bad = dict(
            c_unit=1e-15, r_sw=5e3, t_sample=60e-9, sigma_cmp=4e-3,
            t_d0=1e-9, tau_reg=1e-9, r_drv_msb=9e3, t_dff=5e-9,
        )
        design_path = tmp_path / "bad.json"
        design_path.write_text(json.dumps(bad))
        rc = cli_main(["eval", str(cfg_file), "--design", str(design_path)])
        assert rc == 1
