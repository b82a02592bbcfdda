import csv
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import sarsizer
from sarsizer.adc import DESIGN_FIELDS, AdcConfig, DesignPoint
from sarsizer.cli import console_main, main as cli_main
from sarsizer.csvio import write_csv
from sarsizer.coarse import CoarseReport
from sarsizer.errors import ConfigError, MetricsError, PlanError
from sarsizer.global_opt import run_global
from sarsizer.local_opt import LocalResult
from sarsizer.pipeline import (
    _BLOCKS,
    _KNOWN_TOP_KEYS,
    _config_from_record,
    _schema,
    RECORD_NAME,
    REPORT_FILES,
    SCHEMA_VERSION,
    TRACE_FILES,
    HarnessConfig,
    RunConfig,
    audit_run,
    default_bounds,
    emit_report,
    load_config,
    load_design,
    optimization_plan,
    run_pipeline,
    summary_from_record,
    verification_plan,
    write_json,
)
from sarsizer.sndr import SPECTRUM_FIGURES
from sarsizer.specs import DerivedSpecs

from conftest import no_sine_test

SMALL_RUN = """
N: 8
fs: 1.0e6
V_DD: 1.0
seed: 7
global: {pop_size: 40, max_evals: 400}
local: {max_iter: 25}
harness: {K: 256, M: 4}
"""


def _drop_first_code(capture):
    """Cut the code field off the first data row of a capture.csv."""
    lines = capture.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]
    capture.write_text("\n".join(lines) + "\n")


def _drop_last_row(path):
    """Cut the last data row off a run CSV."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


def _rename_column(path, column, name):
    """Rename one column in a run CSV's header."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    header[column] = name
    lines[0] = ",".join(header)
    path.write_text("\n".join(lines) + "\n")


def _set_csv_value(path, key, column, value):
    """Set one field of the run CSV's data row whose first column is `key`."""
    lines = path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.split(",")[0] == str(key))
    fields = lines[index].split(",")
    fields[column] = repr(value)
    lines[index] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _scale_json_field(path, key, factor):
    content = json.loads(path.read_text())
    content[key] *= factor
    write_json(path, content)


def _no_constant(token):
    raise AssertionError(f"{token} in a run record")


def strict_json(path):
    """A JSON file parsed as RFC 8259 JSON: NaN and Infinity fail."""
    return json.loads(Path(path).read_text(), parse_constant=_no_constant)


# (block, field) of every field of the record's measured blocks, from the
# dataclasses that hold them.
MEASURED_FIELDS = ([("design", name) for name in DESIGN_FIELDS]
                   + [("specs", f.name) for f in dataclasses.fields(DerivedSpecs)]
                   + [("coarse", f.name) for f in dataclasses.fields(CoarseReport)]
                   + [("coarse", "feasible")]
                   + [("spectrum", name) for name in SPECTRUM_FIGURES])


# The files an audit of a run compares, in name order.
RUN_FILES = sorted([*TRACE_FILES.values(), RECORD_NAME])
# A replay mismatch in the record itself: its line number and recorded line.
EDITED_RECORD = r"run_record\.json line \d+: recorded"


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

    def test_file_and_dataclass_share_energy_defaults(self):
        cfg = load_config("N: 8\nfs: 1.0e6\nV_DD: 1.0", is_text=True)
        assert cfg.adc == AdcConfig(8, 1e6, 1.0)

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

    def test_unknown_block_key_warns_not_fatal(self):
        with pytest.warns(UserWarning, match=r"unknown global keys \['max_eval'\]"):
            cfg = load_config("{N: 8, fs: 1e6, V_DD: 1, global: {max_eval: 100}}", is_text=True)
        assert cfg.global_params.max_evals == 5000

    def test_stall_window_is_not_a_config_key(self):
        with pytest.warns(UserWarning, match=r"unknown global keys \['stall_generations'\]"):
            load_config("{N: 8, fs: 1e6, V_DD: 1, global: {stall_generations: 20}}",
                        is_text=True)

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

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "bin.yaml"
        path.write_bytes(b"\xff\xfeN: 8\n")
        with pytest.raises(ConfigError, match="bin.yaml.*UTF-8"):
            load_config(path)

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "true", "7.0", "'7'"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            load_config(f"{{N: 8, fs: 1e6, V_DD: 1, seed: {seed}}}", is_text=True)

    def test_bad_seed_names_the_source(self, tmp_path):
        text = "{N: 8, fs: 1e6, V_DD: 1, seed: -1}"
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        for source, is_text in ((text, True), (path, False)):
            with pytest.raises(ConfigError) as info:
                load_config(source, is_text=is_text)
            where = "<string>" if is_text else str(path)
            assert str(info.value).startswith(f"{where}: seed must be an integer"), info.value

    @pytest.mark.parametrize("change, named", [
        (lambda cfg: {"alpha": -1.0}, "alpha"),
        (lambda cfg: {"bounds": {**cfg.bounds, "c_unit": (2e-15, 1e-15)}}, "c_unit"),
        (lambda cfg: {"bounds": {k: v for k, v in cfg.bounds.items() if k != "c_unit"}},
         "c_unit"),
    ], ids=["negative_alpha", "inverted_bounds", "partial_bounds"])
    def test_replace_keeps_the_range_rules(self, change, named):
        cfg = load_config("{N: 8, fs: 1e6, V_DD: 1}", is_text=True)
        with pytest.raises(ConfigError, match=named):
            dataclasses.replace(cfg, **change(cfg))

    @pytest.mark.parametrize("given, named", [
        ("t_d0: [1e-13, 4e-13]", ["tau_reg", "t_dff"]),
        ("t_d0: [1e-13, 4e-13], tau_reg: [1e-13, 2e-13], t_dff: [1e-13, 4e-13]", None),
    ], ids=["one_timing_bound", "every_timing_bound"])
    def test_default_timing_box_too_fast(self, given, named):
        """Above fs = 2e10 the default timing ranges are empty; the error
        names fs and only the variables left without bounds (TestCli covers
        a config with none)."""
        text = f"{{N: 8, fs: 5.0e10, V_DD: 1.0, bounds: {{{given}}}}}"
        if named is None:
            assert load_config(text, is_text=True).bounds["t_d0"] == (1e-13, 4e-13)
            return
        with pytest.raises(ConfigError) as info:
            load_config(text, is_text=True)
        assert str(info.value) == (f"<string>: fs = 5e+10 Hz is too fast for the default bounds"
                                   f" of {named}; set bounds for them")

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
        ({"global": {"F": -3}}, "global.f_weight"),
        ({"global": {"CR": 5}}, "global.cr"),
        ({"global": {"theta_conv": -1}}, "global.theta_conv"),
        ({"local": {"delta_init": 0}}, "local.delta_init"),
        ({"local": {"delta_init": -0.5}}, "local.delta_init"),
        ({"local": {"w0": 7}}, "local.w0"),
        ({"harness": {"amplitude_frac": 1.5}}, "harness.amplitude_frac"),
        ({"harness": {"f_target_frac": 0.6}}, "harness"),
        ({"global": {"max_evals": 0}}, "global.max_evals"),
        ({"local": {"max_iter": 0}}, "local.max_iter"),
        ({"N": 64}, "n_bits"),
        ({"bounds": {"t_sample": [1.0e-6, 1.1e-6]}}, "t_sample.*fs"),
    ])
    def test_malformed_values_rejected(self, override, name):
        text = yaml.safe_dump({"N": 8, "fs": 1e6, "V_DD": 1.0, **override})
        with pytest.raises(ConfigError, match=name):
            load_config(text, is_text=True)

    def test_sampling_box_must_leave_a_bit_cycle(self):
        # A sampling window of exactly 1/fs fires no bit; one a hair shorter
        # fires the first, so a box starting there loads.
        cfg = load_config("{N: 8, fs: 1.0e6, V_DD: 1.0}", is_text=True)
        period = cfg.adc.t_conv
        with pytest.raises(ConfigError, match="t_sample.*fs"):
            dataclasses.replace(cfg, bounds={**cfg.bounds, "t_sample": (period, 2.0 * period)})
        below = math.nextafter(period, 0.0)
        dataclasses.replace(cfg, bounds={**cfg.bounds, "t_sample": (below, 2.0 * period)})

    def test_widest_resolution_loads(self):
        # 63 bits is the widest whose int64 code weights do not wrap
        assert load_config("{N: 63, fs: 1.0e6, V_DD: 1.0}", is_text=True).adc.n_bits == 63

    def test_numeric_strings_and_integral_lambda_accepted(self):
        # PyYAML reads 1.0e6 as a string; lambda stays a float in the record
        cfg = load_config("{N: 8, fs: 1.0e6, V_DD: '1', local: {lambda: 3}}", is_text=True)
        assert (cfg.adc.f_s, cfg.adc.v_dd) == (1e6, 1.0)
        assert type(cfg.local_params.expensive_every) is float
        assert cfg.local_params.expensive_every == 3.0


def test_readme_example_sets_and_names_every_key():
    """The README's config example loads without a warning, sets every key
    and names both spellings of each aliased one."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        load_config(example, is_text=True)
    raw = yaml.safe_load(example)
    words = set(re.findall(r"\w+", example))
    assert sorted(_KNOWN_TOP_KEYS - words) == []
    assert {"alpha", "bounds", "seed", "out", *_BLOCKS} <= set(raw)
    for block, cls in [(raw, AdcConfig)] + [(raw[k], cls) for k, (_, cls) in _BLOCKS.items()]:
        schema = _schema(cls)
        assert sorted({key for _, keys in schema for key in keys} - words) == []
        assert [f.name for f, keys in schema if not set(keys) & set(block)] == []


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

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7)])
    def test_numpy_integer_seed_writes_the_same_run(self, small_run, tmp_path, seed):
        _, _, out = small_run
        cfg = dataclasses.replace(load_config(SMALL_RUN, is_text=True), seed=seed)
        run_pipeline(cfg, out_dir=tmp_path)
        names = sorted(p.name for p in out.iterdir() if p.name != "timings.json")
        assert names == sorted(p.name for p in tmp_path.iterdir() if p.name != "timings.json")
        for name in names:
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name

    def test_artifacts_written(self, small_run):
        _, result, out = small_run
        for name in TRACE_FILES.values():
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

    def test_audit_recomputes_identically(self, small_run, tmp_path):
        """An unedited run passes, and its regenerated report files are the
        ones the run wrote."""
        run_dir = shutil.copytree(small_run[2], tmp_path / "run")
        assert audit_run(run_dir) == RUN_FILES
        for name in REPORT_FILES.values():
            assert (run_dir / name).read_bytes() == (small_run[2] / name).read_bytes(), name

    def test_audit_check_names_and_order(self, small_run):
        """The audit compares every file the run writes but timings.json
        and the report files, in name order; the record's measured blocks
        hold every field of their dataclasses, in order."""
        _, result, out = small_run
        record = result.record_dict()
        assert audit_run(out) == RUN_FILES
        assert [(b, k) for b in ("design", "specs", "coarse", "spectrum")
                for k in record[b]] == MEASURED_FIELDS

    def test_audit_passes_a_record_rewritten_unedited(self, small_run, tmp_path):
        """The tests' writer is the run's: a record and specs file written
        back through it, unedited, still replay byte for byte."""
        run_dir = shutil.copytree(small_run[2], tmp_path / "run")
        for name in (RECORD_NAME, "specs.json"):
            write_json(run_dir / name, json.loads((run_dir / name).read_text()))
        assert audit_run(run_dir) == RUN_FILES

    @pytest.mark.parametrize("block, key", [("adc", "n_bits"), ("harness", "k_points")])
    def test_audit_reads_integral_floats_as_integers(self, small_run, tmp_path, block, key):
        """A record's 8.0 rebuilds as 8, as it does from a config file; a
        run never writes 8.0, so the replay names it as an edit."""
        run_dir = shutil.copytree(small_run[2], tmp_path / "run")
        path = run_dir / "run_record.json"
        record = json.loads(path.read_text())
        value = record["config"][block][key]
        record["config"][block][key] = float(value)
        write_json(path, record)
        rebuilt = getattr(getattr(_config_from_record(record, str(path)), block), key)
        assert rebuilt == value and type(rebuilt) is int
        with pytest.raises(ConfigError, match=rf'run_record\.json line \d+: recorded '
                                              rf'\'\s*"{key}": {value}\.0,'):
            audit_run(run_dir)

    @pytest.mark.parametrize("block, key, value", [
        ("adc", "n_bits", 1), ("harness", "amplitude_frac", 1.5),
    ])
    def test_audit_names_the_record_on_a_range_error(self, small_run, tmp_path, block, key,
                                                     value):
        run_dir = shutil.copytree(small_run[2], tmp_path / "run")
        path = run_dir / "run_record.json"
        record = json.loads(path.read_text())
        record["config"][block][key] = value
        write_json(path, record)
        with pytest.raises(ConfigError, match=rf"run_record\.json: config\.{block}\.{key} must be"):
            audit_run(run_dir)

    def test_summary_prints_the_rebuilt_config(self, small_run, tmp_path):
        """A record's 8.0 bits print as the 8 the record's config rebuilds
        as, though the audit names the 8.0 as an edit."""
        run_dir = shutil.copytree(small_run[2], tmp_path / "run")
        path = run_dir / "run_record.json"
        record = json.loads(path.read_text())
        record["config"]["adc"]["n_bits"] = 8.0
        write_json(path, record)
        with pytest.raises(ConfigError, match=r'run_record\.json line \d+: recorded '
                                              r'\'\s*"n_bits": 8\.0,'):
            audit_run(run_dir)
        text = summary_from_record(record, _config_from_record(record, str(path)))
        assert "resolution      : 8 bits\n" in text
        assert text == summary_from_record(small_run[1].record_dict(), small_run[1].config)

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
        write_json(path, record)
        with pytest.raises(ConfigError, match=rf'run_record\.json line \d+: recorded '
                                              rf'\'\s*"{key}": '):
            audit_run(run_dir)

    @pytest.mark.parametrize("block, key", MEASURED_FIELDS,
                             ids=[f"{b}.{k}" for b, k in MEASURED_FIELDS])
    def test_audit_catches_any_edited_field(self, small_run, tmp_path, block, key):
        """A flipped boolean, or a number or list scaled by 1.5 (a zero set
        to 1.5), fails the audit naming the record's line (the field's key,
        or for a list its first edited element), and no report is written."""
        run_dir = shutil.copytree(small_run[2], tmp_path / "run")
        for name in REPORT_FILES.values():
            (run_dir / name).unlink()
        path = run_dir / RECORD_NAME
        record = json.loads(path.read_text())
        value = record[block][key]
        record[block][key] = (not value if isinstance(value, bool)
                              else [1.5 * v for v in value] if isinstance(value, list)
                              else 1.5 * value or 1.5)
        write_json(path, record)
        shown = r"\s*-?\d" if isinstance(value, list) else rf'\s*"{key}": '
        with pytest.raises(ConfigError, match=rf"run_record\.json line \d+: recorded '{shown}"):
            audit_run(run_dir)
        assert not any((run_dir / name).exists() for name in REPORT_FILES.values())

    @pytest.mark.parametrize("tamper, named", [
        (lambda record, run_dir: record.update(schema_version=99), "run_record.json"),
        (lambda record, run_dir: record["config"]["adc"].update(frobnicate=1.0),
         "run_record.json"),
        (lambda record, run_dir: record["config"].pop("harness"), "run_record.json"),
        (lambda record, run_dir: record["config"].pop("alpha"), "run_record.json"),
        (lambda record, run_dir: record["config"].pop("bounds"), "run_record.json"),
        (lambda record, run_dir: record["config"].pop("seed"), "run_record.json"),
        (lambda record, run_dir: record.pop("trace_files"), EDITED_RECORD),
        (lambda record, run_dir: record.pop("coarse"), EDITED_RECORD),
        (lambda record, run_dir: _drop_first_code(run_dir / "capture.csv"),
         r"capture\.csv line 2: recorded"),
        (lambda record, run_dir: record.pop("global"), EDITED_RECORD),
        (lambda record, run_dir: record.pop("local"), EDITED_RECORD),
        (lambda record, run_dir: record.pop("warning"), EDITED_RECORD),
        (lambda record, run_dir: record["global"].pop("stop_reason"), EDITED_RECORD),
        (lambda record, run_dir: record["design"].pop("r_sw"), EDITED_RECORD),
        (lambda record, run_dir: record["specs"].pop("sndr_ceiling"), EDITED_RECORD),
        (lambda record, run_dir: record["design"].update(r_sw="small"),
         rf'{EDITED_RECORD} \'\s*"r_sw": "small",'),
        (lambda record, run_dir: record["config"]["harness"].update(noise="yes"),
         "run_record.json"),
        (lambda record, run_dir: record["config"]["harness"].update(m_segments=3),
         r"run_record\.json: the recorded run does not replay: "),
        (lambda record, run_dir: record["config"].update(seed=-1), "run_record.json"),
        (lambda record, run_dir: record["config"]["bounds"].update(c_unit=[1e-16, 1e-13, 2e-13]),
         "run_record.json"),
        (lambda record, run_dir: record["config"]["bounds"].update(c_unit="ab"),
         "run_record.json"),
        (lambda record, run_dir: record["config"].update(alpha=-1), "run_record.json"),
        (lambda record, run_dir: record["config"]["bounds"].update(c_unit=[1e-12, 2e-12]),
         r"design\.json line \d+: recorded"),
        (lambda record, run_dir: record["config"]["adc"].pop("n_bits"), "run_record.json"),
        (lambda record, run_dir: record["config"]["adc"].update(
            N=record["config"]["adc"].pop("n_bits")), "run_record.json"),
        (lambda record, run_dir: record["config"].update(harness=[]), "run_record.json"),
        (lambda record, run_dir: record.update(local=None), EDITED_RECORD),
        (lambda record, run_dir: _drop_last_row(run_dir / "capture.csv"),
         r"capture\.csv line 1025: recorded end of file"),
        (lambda record, run_dir: record["coarse"].update(margin=1.0),
         rf'{EDITED_RECORD} \'\s*"margin": 1\.0,'),
        (lambda record, run_dir: record["spectrum"].pop("enob"), EDITED_RECORD),
        (lambda record, run_dir: record["coarse"].update(ssre=[0.0]), EDITED_RECORD),
        (lambda record, run_dir: record["specs"].update(n_bits=True),
         rf'{EDITED_RECORD} \'\s*"n_bits": true,'),
        (lambda record, run_dir: _scale_json_field(run_dir / "specs.json", "sndr_ceiling", 1.5),
         r'specs\.json line \d+: recorded \'\s*"sndr_ceiling": '),
        (lambda record, run_dir: _set_csv_value(run_dir / "spectrum.csv", 1, 1, 99.0),
         r"spectrum\.csv line 3: recorded '1,99\.0"),
        (lambda record, run_dir: _set_csv_value(run_dir / "capture.csv", 1, 1, 5.0),
         r"capture\.csv line 3: recorded '1,5\.0,"),
        (lambda record, run_dir: (run_dir / "specs.json").write_text("[]"),
         r"specs\.json line 1: recorded '\[\]'"),
        (lambda record, run_dir: _set_csv_value(run_dir / "spectrum.csv", 1, 1, "x"),
         r"spectrum\.csv line 3: recorded \"1,'x'"),
        (lambda record, run_dir: _drop_last_row(run_dir / "eval_log.csv"),
         r"eval_log\.csv line \d+: recorded end of file"),
        (lambda record, run_dir: _drop_last_row(run_dir / "global_history.csv"),
         r"global_history\.csv line \d+: recorded end of file"),
        (lambda record, run_dir: _drop_last_row(run_dir / "local_history.csv"),
         r"local_history\.csv line \d+: recorded end of file"),
        (lambda record, run_dir: record["local"].update(iterations=record["local"]["iterations"] + 1),
         rf'{EDITED_RECORD} \'\s*"iterations": '),
        (lambda record, run_dir: _rename_column(run_dir / "eval_log.csv", 1, "c"),
         r"eval_log\.csv line 1: recorded 'candidate,c,r_sw"),
        (lambda record, run_dir: _rename_column(run_dir / "global_history.csv", 2, "best"),
         r"global_history\.csv line 1: recorded 'generation,evals,best,"),
        (lambda record, run_dir: _rename_column(run_dir / "local_history.csv", 5, "rolled"),
         r"local_history\.csv line 1: recorded 'iteration,.*,rolled\\n'"),
        (lambda record, run_dir: (run_dir / "local_history.csv").write_bytes(b"\xff\xfe"),
         r"local_history\.csv line 1: recorded '��'"),
        (lambda record, run_dir: record["config"].update(defaults_applied=[]),
         r"run_record\.json: config\.defaults_applied must be a mapping, got \[\]"),
        (lambda record, run_dir: _set_csv_value(run_dir / "eval_log.csv", 0, 1, 7.0),
         r"eval_log\.csv line 2: recorded '0,7\.0,"),
        (lambda record, run_dir: _set_csv_value(run_dir / "global_history.csv", 0, 4, 99.0),
         r"global_history\.csv line 2: recorded '0,\d+,.*,99\.0\\n'"),
        (lambda record, run_dir: _set_csv_value(run_dir / "local_history.csv", 1, 4, 0.25),
         r"local_history\.csv line 2: recorded '1,.*,0\.25,"),
        (lambda record, run_dir: (run_dir / "notes.txt").write_text("edited by hand\n"),
         r"notes\.txt is not a file the run writes"),
        (lambda record, run_dir: (run_dir / "design.json").unlink(), r"design\.json is missing"),
    ], ids=["schema_version", "unknown_adc_key", "missing_harness", "missing_alpha",
            "missing_bounds", "missing_seed", "missing_trace_files", "missing_coarse",
            "short_capture_row", "missing_global", "missing_local", "missing_warning",
            "missing_stop_reason", "missing_design_value", "missing_sndr_ceiling",
            "string_design_value", "string_noise", "unplannable_harness", "negative_seed",
            "bounds_triple", "bounds_string", "negative_alpha", "design_outside_bounds",
            "missing_n_bits", "aliased_n_bits", "harness_list", "null_local",
            "truncated_capture", "unknown_coarse_field", "missing_enob", "short_ssre",
            "boolean_n_bits", "edited_specs_file", "edited_spectrum_bin", "edited_capture_input",
            "specs_file_not_a_mapping", "malformed_spectrum_row", "short_eval_log",
            "short_global_history", "short_local_history", "local_iterations_edited",
            "eval_log_header", "global_history_header", "local_history_header",
            "local_history_not_text", "defaults_applied_not_a_mapping", "edited_eval_log_value",
            "edited_global_history_value", "edited_local_history_value", "extra_file",
            "missing_design_file"])
    def test_audit_rejects_unreadable_record(self, small_run, tmp_path, tamper, named):
        run_dir = shutil.copytree(small_run[2], tmp_path / "run")
        path = run_dir / "run_record.json"
        record = json.loads(path.read_text())
        tamper(record, run_dir)
        write_json(path, record)
        with pytest.raises(ConfigError, match=named) as exc:
            audit_run(run_dir)
        assert str(exc.value).startswith(f"{path}: ")

    def test_audit_regenerates_the_report_files(self, small_run, tmp_path):
        """A passing audit rewrites summary.txt and metrics.csv as the run
        wrote them; a failing one writes neither."""
        names = ("summary.txt", "metrics.csv")
        run_dir = shutil.copytree(small_run[2], tmp_path / "run")
        for name in names:
            (run_dir / name).unlink()
        audit_run(run_dir)
        for name in names:
            assert (run_dir / name).read_bytes() == (small_run[2] / name).read_bytes(), name
            (run_dir / name).unlink()
        path = run_dir / "run_record.json"
        record = json.loads(path.read_text())
        record["coarse"]["power"] *= 1.0 + 1e-9
        write_json(path, record)
        with pytest.raises(ConfigError, match="power"):
            audit_run(run_dir)
        assert not any((run_dir / name).exists() for name in names)

    def test_summary_cross_checks_metrics(self, small_run):
        _, result, _ = small_run
        text = summary_from_record(result.record_dict(), result.config)
        assert "FoM_W" in text and "FoM_S" in text
        enob = (result.spectrum.sndr_db - 1.76) / 6.02
        assert f"cross-check {enob:.3f}" in text

    def test_defaults_echoed_into_record(self, small_run):
        _, _, out = small_run
        record = json.loads((out / "run_record.json").read_text())
        assert "defaults_applied" in record["config"]

    @pytest.mark.parametrize("verify_scale", [1, 2, 4, 8])
    def test_verify_tone_is_nearest_odd_multiple(self, verify_scale):
        # The verify plan snaps verify_scale * J to an odd cycle count,
        # ties to the smaller: only verify_scale 1 keeps the tone.
        harness = HarnessConfig(k_points=512, verify_scale=verify_scale)
        base = optimization_plan(1e6, 1.0, harness, 0)
        plan = verification_plan(1e6, 1.0, harness, 0)
        scaled = verify_scale * base.j_cycles
        assert base.j_cycles == 49
        assert plan.k_points == 512 * verify_scale
        assert plan.j_cycles == (scaled if verify_scale == 1 else scaled - 1)
        if verify_scale == 4:
            assert (round(base.f_in), plan.j_cycles, round(plan.f_in)) == (95703, 195, 95215)

    def test_capture_matches_verification_plan_length(self, small_run):
        cfg, _, out = small_run
        plan = verification_plan(cfg.adc.f_s, cfg.adc.v_dd, cfg.harness, cfg.seed)
        rows = (out / "capture.csv").read_text().strip().split("\n")
        assert len(rows) - 1 == plan.k_points == 256 * 4

    @pytest.mark.parametrize("harness, override", [
        ("{K: 500}", {"k_points": 500}),
        ("{verify_scale: 3}", {"verify_scale": 3}),
    ], ids=["k_points", "verify_scale"])
    def test_bad_harness_fails_before_evaluation(self, harness, override, monkeypatch):
        def no_eval(*args, **kwargs):
            raise AssertionError("evaluation started")

        monkeypatch.setattr("sarsizer.pipeline.run_global", no_eval)
        monkeypatch.setattr("sarsizer.problem.evaluate_coarse", no_eval)
        with pytest.raises(ConfigError, match="harness"):
            load_config(f"{{N: 8, fs: 1e6, V_DD: 1, harness: {harness}}}", is_text=True)
        # A harness set after loading still fails before any evaluation.
        cfg = load_config("{N: 8, fs: 1e6, V_DD: 1}", is_text=True)
        cfg = dataclasses.replace(cfg, harness=dataclasses.replace(cfg.harness, **override))
        with pytest.raises(PlanError):
            run_pipeline(cfg)

    def test_infinite_lambda_runs_no_sine_test(self, tmp_path, monkeypatch):
        monkeypatch.setattr("sarsizer.pipeline.ExpensiveObjective", lambda **_: no_sine_test)
        cfg = load_config(SMALL_RUN.replace("local: {max_iter: 25}",
                                            "local: {max_iter: 25, lambda: inf}"), is_text=True)
        run_pipeline(cfg, out_dir=tmp_path / "run")
        local = json.loads((tmp_path / "run" / "run_record.json").read_text())["local"]
        assert (local["n_expensive"], local["f_expensive"]) == (0, None)

    def test_infinite_lambda_record_is_strict_json(self, tmp_path, monkeypatch):
        """lambda = inf is recorded as null, which the audit reads back as never."""
        monkeypatch.setattr("sarsizer.pipeline.ExpensiveObjective", lambda **_: no_sine_test)
        cfg = load_config(SMALL_RUN.replace("local: {max_iter: 25}",
                                            "local: {max_iter: 25, lambda: inf}"), is_text=True)
        run_pipeline(cfg, out_dir=tmp_path / "run")
        record = strict_json(tmp_path / "run" / RECORD_NAME)
        assert record["config"]["local"]["expensive_every"] is None
        audit_run(tmp_path / "run")
        rebuilt = _config_from_record(record, RECORD_NAME)
        assert math.isinf(rebuilt.local_params.expensive_every)

    def test_failed_final_sine_test_record_is_strict_json(self, tmp_path, monkeypatch):
        """A sine test that fails scores +inf; the record holds null and
        counts the failures."""
        def unusable(x):
            raise MetricsError("every conversion timing-dead")

        monkeypatch.setattr("sarsizer.pipeline.ExpensiveObjective", lambda **_: unusable)
        result = run_pipeline(load_config(SMALL_RUN, is_text=True), out_dir=tmp_path / "run")
        assert result.local_result.f_expensive == math.inf
        local = strict_json(tmp_path / "run" / RECORD_NAME)["local"]
        assert local["f_expensive"] is None
        assert local["n_expensive_failed"] == local["n_expensive"] >= 1

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
    def test_non_strict_record_rejected(self, small_run, tmp_path, token):
        run_dir = shutil.copytree(small_run[2], tmp_path / "run")
        path = run_dir / RECORD_NAME
        text = path.read_text()
        path.write_text(text.replace('"f_cheap": ', f'"f_cheap": {token}, "x": ', 1))
        with pytest.raises(ConfigError, match=rf"run_record\.json: malformed JSON: {token}"):
            audit_run(run_dir)

    def test_history_csvs_are_the_history_rows(self, small_run):
        """Each history file's header is its rows' keys in order, with one
        line per row; every value reads back, and None as an empty field."""
        _, result, out = small_run
        local = result.local_result.history
        assert None in [row["f_expensive"] for row in local]
        for name, rows in [("global_history.csv", result.global_state.history),
                           ("local_history.csv", local)]:
            with open(out / name, newline="") as buf:
                header, *lines = csv.reader(buf)
            assert header == list(rows[0])
            assert [[None if v == "" else float(v) for v in line] for line in lines] == [
                list(row.values()) for row in rows]

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
            "global": {"generations": 10, "evals": 500, "n_converged": 6,
                       "stop_reason": "stalled"},
            "warning": None,
        }

    def published_config(self):
        return load_config("{N: 12, fs: 20.0e6, V_DD: 1.0}", is_text=True)

    def test_summary_lists_published_foms(self, tmp_path):
        record = self.published_record()
        emit_report(record, self.published_config(), tmp_path)
        text = (tmp_path / REPORT_FILES["summary"]).read_text()
        assert "FoM_S = 177.31 dB" in text
        assert "FoM_W = 4.6" in text
        # ENOB identity recomputed and cross-checked in the same line
        assert "ENOB  = 11.701 bits (cross-check 11.701)" in text
        metrics = (tmp_path / REPORT_FILES["metrics"]).read_text()
        assert "sndr_db,72.2" in metrics

    def test_summary_matches_record_based_formatter(self, small_run):
        _, result, out = small_run
        assert (out / "summary.txt").read_text() == summary_from_record(
            json.loads((out / "run_record.json").read_text()), result.config
        )


class TestWriteCsv:
    def test_writes_csv_writers_bytes_and_reads_back(self, tmp_path):
        header = ["i", "none", "inf", "flag", "x", "y", "text"]
        rows = [[0, None, -math.inf, True, 1.5e-15, np.float64(0.1), "budget"],
                [1, 2, math.nan, False, 3, -0.0, ""]]
        write_csv(tmp_path / "t.csv", header, iter(rows))
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([header, *rows])
        assert (tmp_path / "t.csv").read_bytes() == expected.getvalue().encode()
        with open(tmp_path / "t.csv", newline="") as buf:
            back = list(csv.reader(buf))
        assert back[1] == ["0", "", "-inf", "True", "1.5e-15", "0.1", "budget"]
        assert float(back[1][2]) == -math.inf and back[1][1] == "" and back[1][3] == "True"

    @pytest.mark.parametrize("field", ["a,b", 'say "x"', "a\nb", "a\rb"])
    def test_rejects_a_field_csv_writer_would_quote(self, tmp_path, field):
        with pytest.raises(ValueError, match="quoting"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, field]])


class TestDesignFiles:
    def test_round_trip(self, tmp_path, small_run):
        cfg, result, _ = small_run
        path = tmp_path / "design.json"
        path.write_text(json.dumps(result.design.to_dict()))
        loaded = load_design(path, cfg)
        assert loaded.shape == (1, len(DESIGN_FIELDS))
        assert DesignPoint.from_vector(loaded[0]) == result.design

    def test_missing_field_rejected(self, tmp_path, small_run):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"c_unit": 1e-15}))
        with pytest.raises(ConfigError, match="missing"):
            load_design(path, small_run[0])

    def test_string_value_rejected(self, tmp_path, small_run):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**small_run[1].design.to_dict(), "r_sw": "abc"}))
        with pytest.raises(ConfigError, match="r_sw"):
            load_design(path, small_run[0])

    def test_out_of_bounds_rejected(self, tmp_path, small_run):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**small_run[1].design.to_dict(), "c_unit": 1e-9}))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: c_unit=1e-09 outside"):
            load_design(path, small_run[0])


# Violates a coarse constraint under SMALL_RUN's config.
INFEASIBLE = DesignPoint(
    c_unit=1e-15, r_sw=5e3, t_sample=60e-9, sigma_cmp=4e-3,
    t_d0=1e-9, tau_reg=1e-9, r_drv_msb=9e3, t_dff=5e-9,
)


def design_x(design):
    return np.array([getattr(design, name) for name in DESIGN_FIELDS])


class TestLocalFallback:
    """The final design when the local end point violates a coarse constraint."""

    def run_with_local_scoring(self, small_run, monkeypatch, scored):
        """run_pipeline whose local phase starts at INFEASIBLE (the global
        phase's best row: the cheap objective has scored it), scores the
        designs `scored` through the cheap objective it is given, then ends
        on INFEASIBLE."""

        def global_best_infeasible(problem, params, seed):
            state = run_global(problem, params, seed)
            state.x[state.best] = design_x(INFEASIBLE)
            return state

        def fake_run_local(x0, mask, f_cheap, f_expensive, params, bounds):
            assert x0.tobytes() == design_x(INFEASIBLE).tobytes()
            f_cheap(np.array([design_x(design) for design in scored]))
            return LocalResult(x_best=design_x(INFEASIBLE), f_cheap=0.0, f_expensive=None,
                               iterations=1, rollbacks=0, n_cheap=len(scored),
                               n_expensive=0, n_expensive_failed=0)

        monkeypatch.setattr("sarsizer.pipeline.run_global", global_best_infeasible)
        monkeypatch.setattr("sarsizer.pipeline.run_local", fake_run_local)
        return run_pipeline(small_run[0])

    def test_keeps_best_feasible_point(self, small_run, monkeypatch):
        feasible = small_run[1].design
        assert small_run[1].coarse.feasible
        result = self.run_with_local_scoring(small_run, monkeypatch, [INFEASIBLE, feasible])
        assert result.design == feasible
        assert result.coarse.feasible
        assert "kept best feasible point" in result.warning

    def test_warns_when_nothing_feasible_scored(self, small_run, monkeypatch):
        result = self.run_with_local_scoring(small_run, monkeypatch, [INFEASIBLE])
        assert result.design == INFEASIBLE
        assert not result.coarse.feasible
        assert "no coarse-feasible point found" in result.warning


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
        assert f"audit of {out}: the replay wrote the same {', '.join(RUN_FILES)}\n" in (
            capsys.readouterr().out)

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
        rc = cli_main(["sndr", str(cfg_file), "--design", str(design_path),
                       "--export", str(export)])
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

    @pytest.mark.parametrize("args", [
        ["run", "{cfg}", "--seed", "-1"],
        ["run", "{tmp}/bin.yaml"],
        ["run", "{tmp}/zero.yaml"],
        ["eval", "{cfg}", "--design", "{tmp}/missing.json"],
        ["eval", "{cfg}", "--design", "{tmp}/bad.json"],
        ["eval", "{cfg}", "--design", "{tmp}/latin1.json"],
        ["report", "{tmp}/bad-run"],
        ["report", "{tmp}/list-run"],
        ["report", "{tmp}/no-alpha-run"],
        ["report", "{tmp}/no-global-run"],
        ["report", "{tmp}/no-local-run"],
        ["report", "{tmp}/bounds-triple-run"],
    ], ids=["bad_seed", "non_utf8_config", "zero_budget", "missing_design",
            "malformed_design", "non_utf8_design", "malformed_record", "non_object_record",
            "record_missing_alpha", "record_missing_global", "record_missing_local",
            "record_bounds_triple"])
    def test_console_errors_are_one_line_exit_2(self, tmp_path, cfg_file, args, small_run):
        (tmp_path / "bin.yaml").write_bytes(b"\xff\xfeN: 8\n")
        (tmp_path / "zero.yaml").write_text("{N: 8, fs: 1.0e6, V_DD: 1, global: {max_evals: 0}}")
        (tmp_path / "bad.json").write_text("{bad")
        (tmp_path / "latin1.json").write_bytes(b'{"c_unit": "\xb5"}')
        (tmp_path / "bad-run").mkdir()
        (tmp_path / "bad-run" / "run_record.json").write_text("{bad")
        (tmp_path / "list-run").mkdir()
        (tmp_path / "list-run" / "run_record.json").write_text("[]")
        (tmp_path / "no-alpha-run").mkdir()
        (tmp_path / "no-alpha-run" / "run_record.json").write_text(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "config": {"adc": {"n_bits": 8, "f_s": 1e6, "v_dd": 1.0}, "harness": {}},
        }))
        for block in ("global", "local"):  # a whole run, whose record lacks one block
            run_dir = shutil.copytree(small_run[2], tmp_path / f"no-{block}-run")
            record = json.loads((run_dir / "run_record.json").read_text())
            del record[block]
            write_json(run_dir / "run_record.json", record)
        run_dir = shutil.copytree(small_run[2], tmp_path / "bounds-triple-run")
        record = json.loads((run_dir / "run_record.json").read_text())
        record["config"]["bounds"]["c_unit"] = [1e-16, 1e-13, 2e-13]
        write_json(run_dir / "run_record.json", record)
        argv = [a.format(cfg=cfg_file, tmp=tmp_path) for a in args]
        env = {**os.environ, "PYTHONPATH": str(Path(sarsizer.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "sarsizer.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert proc.stderr.startswith("sarsizer: error: ")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr

    def test_design_missing_field_names_the_file(self, tmp_path, cfg_file, small_run, capsys):
        design = small_run[1].design.to_dict()
        del design["r_sw"]
        path = tmp_path / "miss.json"
        path.write_text(json.dumps(design))
        assert console_main(["eval", str(cfg_file), "--design", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"sarsizer: error: {path}: design file missing fields: ['r_sw']\n")

    @pytest.mark.parametrize("command", ["eval", "sndr"])
    def test_design_outside_bounds_names_the_file(self, tmp_path, cfg_file, small_run, capsys,
                                                  command):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**small_run[1].design.to_dict(), "c_unit": 1e-9}))
        assert console_main([command, str(cfg_file), "--design", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"sarsizer: error: {path}: c_unit=1e-09 outside bounds [5e-16, 5e-14]\n")

    @pytest.mark.parametrize("command, flag", [("eval", "--out"), ("eval", "--seed"),
                                               ("sndr", "--out")])
    def test_flag_the_command_would_ignore_is_rejected(self, tmp_path, cfg_file, command,
                                                       flag, capsys):
        """Only run writes to --out, and only run and sndr draw from the seed."""
        with pytest.raises(SystemExit) as exc:
            console_main([command, str(cfg_file), "--design", str(tmp_path / "d.json"),
                          flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    def test_too_fast_for_the_default_box_names_fs(self, tmp_path, capsys):
        path = tmp_path / "fast.yaml"
        path.write_text("{N: 8, fs: 5.0e10, V_DD: 1.0}")
        assert console_main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"sarsizer: error: {path}: fs = 5e+10 Hz is too fast for the default bounds"
            " of ['t_d0', 'tau_reg', 't_dff']; set bounds for them\n")

    def test_eval_exit_code_on_infeasible(self, tmp_path, cfg_file, capsys):
        bad = dict(
            c_unit=1e-15, r_sw=5e3, t_sample=60e-9, sigma_cmp=4e-3,
            t_d0=1e-9, tau_reg=1e-9, r_drv_msb=9e3, t_dff=5e-9,
        )
        design_path = tmp_path / "bad.json"
        design_path.write_text(json.dumps(bad))
        rc = cli_main(["eval", str(cfg_file), "--design", str(design_path)])
        assert rc == 1
