"""Run configuration, the derive/global/freeze/local/verify pipeline, and
run persistence.

A run directory holds: run_record.json (fully reproducible from config +
seed, no timestamps), timings.json (wall clock, intentionally kept out of
the record), the evaluation/convergence CSV traces, the final capture and
spectrum CSVs, and the final design as a standalone JSON file.
"""

from __future__ import annotations

import contextlib
import json
import math
import reprlib
import shutil
import tempfile
import time
import warnings
from dataclasses import MISSING, Field, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .adc import DESIGN_FIELDS, AdcConfig, DesignPoint, check_designs, design_box
from .coarse import CoarseReport
from .csvio import write_csv
from .errors import BoundsError, ConfigError, PlanError, SarSizerError, require
from .global_opt import GlobalParams, OptimizerState, Problem, run_global
from .local_opt import LocalParams, LocalResult, run_local
from .problem import CheapObjective, CoarseProblem, ExpensiveObjective
from .rng import is_seed
from .sndr import (
    SPECTRUM_FIGURES,
    SpectrumReport,
    enob_from_sndr,
    plan_test,
    sine_test,
    spectrum_metrics,
    write_capture_csv,
    write_spectrum_csv,
)
from .specs import DerivedSpecs

RECORD_NAME = "run_record.json"
SCHEMA_VERSION = 6
# Run artifact -> file name, as the record's trace_files lists them.
TRACE_FILES = {"global_history": "global_history.csv", "local_history": "local_history.csv",
               "eval_log": "eval_log.csv", "capture": "capture.csv", "spectrum": "spectrum.csv",
               "design": "design.json", "specs": "specs.json"}
REPORT_FILES = {"summary": "summary.txt", "metrics": "metrics.csv"}


def default_bounds(cfg: AdcConfig) -> dict[str, tuple[float, float]]:
    """Sizing box used when a config gives no explicit bounds.

    Timing-related ranges scale with the conversion period so the box
    stays meaningful across sampling rates.
    """
    t_conv = cfg.t_conv
    return {
        "c_unit": (0.5e-15, 50e-15),
        "r_sw": (10.0, 20e3),
        "t_sample": (0.02 * t_conv, 0.4 * t_conv),
        "sigma_cmp": (5e-6, 5e-3),
        "t_d0": (1e-12, 0.02 * t_conv),
        "tau_reg": (0.5e-12, 0.01 * t_conv),
        "r_drv_msb": (50.0, 20e3),
        "t_dff": (1e-12, 0.02 * t_conv),
    }


@dataclass(frozen=True)
class HarnessConfig:
    k_points: int = 1024
    m_segments: int = 4
    f_target_frac: float = 0.097    # of f_s; planner snaps to a coherent bin
    amplitude_frac: float = 0.95    # of full-scale half-range
    noise: bool = True
    verify_scale: int = 4

    def __post_init__(self) -> None:
        require(0.0 < self.amplitude_frac <= 1.0, "amplitude_frac", "in (0, 1]", self.amplitude_frac)


@dataclass
class RunConfig:
    adc: AdcConfig
    alpha: float
    bounds: dict[str, tuple[float, float]]
    global_params: GlobalParams
    local_params: LocalParams
    harness: HarnessConfig
    seed: int
    out_dir: str | None = None
    defaults_applied: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        require(self.alpha > 0, "alpha", "positive", self.alpha)
        if missing := [k for k in DESIGN_FIELDS if k not in self.bounds]:
            raise ConfigError(f"bounds missing for design variables {missing}")
        for key, (lo, hi) in self.bounds.items():
            if key not in DESIGN_FIELDS:
                raise ConfigError(f"unknown design variable {key!r} in bounds")
            if not 0 < lo < hi:
                raise ConfigError(f"bounds for {key} need 0 < lo < hi")
        # A sampling window of a whole period leaves no design a bit cycle.
        t_conv, lo = self.adc.t_conv, self.bounds["t_sample"][0]
        require(lo < t_conv, "t_sample's lower bound", f"below 1/fs = {t_conv:g} s", lo)
        require(is_seed(self.seed), "seed", "an integer in [0, 2**64)", self.seed)
        self.seed = int(self.seed)  # a numpy integer would not serialize

    def effective_dict(self) -> dict:
        """The config as the record holds it; lambda = inf (never) is null."""
        blocks = {name: asdict(getattr(self, attr)) for name, (attr, _) in _BLOCKS.items()}
        blocks["local"]["expensive_every"] = _finite_or_none(self.local_params.expensive_every)
        return {
            "adc": asdict(self.adc),
            "alpha": self.alpha,
            "bounds": {k: list(v) for k, v in self.bounds.items()},
            **blocks,
            "seed": self.seed,
            "defaults_applied": self.defaults_applied,
        }


# Config keys the paper spells its own way.  Both spellings load; the
# paper's wins when both are given.
_ALIASES = {
    "n_bits": "N", "f_s": "fs", "v_dd": "V_DD", "temp_k": "T", "f_weight": "F", "cr": "CR",
    "penalty_scale": "a", "expensive_every": "lambda", "k_points": "K", "m_segments": "M",
}
# Config block -> (RunConfig field, dataclass).
_BLOCKS = {"global": ("global_params", GlobalParams), "local": ("local_params", LocalParams),
           "harness": ("harness", HarnessConfig)}


def _schema(cls) -> list[tuple[Field, tuple[str, ...]]]:
    """The config fields of a dataclass, each with its spellings, alias
    first."""
    return [(f, tuple(k for k in (_ALIASES.get(f.name), f.name) if k)) for f in fields(cls)]


_KNOWN_TOP_KEYS = {k for _, keys in _schema(AdcConfig) for k in keys} | {
    "alpha", "bounds", "seed", "out", *_BLOCKS
}


def _finite_or_none(value: float | None) -> float | None:
    """A number strict JSON can hold: a non-finite one (or None) is None."""
    return value if value is not None and math.isfinite(value) else None


def _integer(value, name: str, where: str, minimum: int = 0) -> int:
    """An integer config value: an int or integral float, never a bool."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < minimum:
        raise ConfigError(f"{where}: {name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _number(value, name: str, where: str) -> float:
    """A finite real config value: an int, a float or a numeric string
    (PyYAML reads 1.0e6 as a string), never a bool."""
    number = math.nan
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError, OverflowError):
            number = float(value)
    if not math.isfinite(number):
        raise ConfigError(f"{where}: {name} must be a finite number, got {value!r}")
    return number


def _block(raw: dict, name: str, where: str) -> dict:
    """A nested config mapping; absent or null is empty."""
    block = raw.get(name)
    if not isinstance(block, (dict, type(None))):
        raise ConfigError(f"{where}: {name} must be a mapping, got {block!r}")
    return block or {}


def _bounds(raw: dict, where: str, prefix: str = "") -> dict[str, tuple[float, float]]:
    """A bounds mapping's [lo, hi] pairs as pairs of finite numbers; the
    range rules are RunConfig's."""
    bounds = {}
    for key, pair in raw.items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{where}: {prefix}bounds for {key} must be a [lo, hi] pair")
        bounds[key] = tuple(_number(v, f"{prefix}bounds.{key}", where) for v in pair)
    return bounds


def _convert(f: Field, value, name: str, where: str):
    """A config value converted by its field's declared type (annotations
    are postponed, so a string); the dataclass checks its range."""
    if f.name == "expensive_every":  # lambda: an integer >= 1, or inf (never)
        return math.inf if value in ("inf", None, math.inf) else float(
            _integer(value, name, where, 1))
    if f.type == "bool" and not isinstance(value, bool):
        raise ConfigError(f"{where}: {name} must be true or false, got {value!r}")
    if f.type == "int" or f.type == "int | None" and value is not None:
        return _integer(value, name, where)
    if f.type == "float":
        return _number(value, name, where)
    return value


def _from_mapping(cls, raw: dict, where: str, block: str = ""):
    """Build a config dataclass from a mapping: each field from its first
    spelling present, converted by ``_convert``; an absent field keeps its
    default."""
    schema, values = _schema(cls), {}
    known = {k for _, keys in schema for k in keys} if block else _KNOWN_TOP_KEYS
    if unknown := sorted(set(raw) - known):
        kind = f"{block} " if block else ""
        warnings.warn(f"{where}: ignoring unknown {kind}keys {unknown}", stacklevel=3)
    prefix = f"{block}." if block else ""
    for f, keys in schema:
        key = next((k for k in keys if k in raw), None)
        if key is not None:
            name = prefix + (key if key == f.name else f"{key} ({f.name})")
            values[f.name] = _convert(f, raw[key], name, where)
        elif f.default is MISSING:
            raise ConfigError(f"{where}: missing required key {prefix}{f.name}")
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {prefix}{exc}") from exc


def load_config(path_or_text: str | Path, is_text: bool = False) -> RunConfig:
    """Parse and validate a YAML run configuration.

    Minimal configs need only resolution, sampling rate, and supply;
    everything else defaults, and each applied default is echoed into the
    run record.  Unknown keys warn but do not fail.  Every range rule is
    the dataclasses' own, and both sine-test plans are built here, so a
    bad value fails with ConfigError before any evaluation.
    """
    if is_text:
        text = str(path_or_text)
        where = "<string>"
    else:
        where = str(path_or_text)
        try:
            text = Path(path_or_text).read_text()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read {where}: not UTF-8 text: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: top level must be a mapping")

    adc = _from_mapping(AdcConfig, raw, where)
    applied = {f.name: getattr(adc, f.name) for f, keys in _schema(AdcConfig)
               if not raw.keys() & set(keys)}
    if "alpha" not in raw:
        applied["alpha"] = 1.0
    alpha = _number(raw.get("alpha", 1.0), "alpha", where)
    user_bounds = _block(raw, "bounds", where)
    box = default_bounds(adc)
    if empty := [k for k, (lo, hi) in box.items() if k not in user_bounds and not lo < hi]:
        raise ConfigError(f"{where}: fs = {adc.f_s:g} Hz is too fast for the default bounds"
                          f" of {empty}; set bounds for them")
    bounds = {**box, **_bounds(user_bounds, where)}
    if not user_bounds:
        applied["bounds"] = "default sizing box"

    params = {}
    for name, (attr, cls) in _BLOCKS.items():
        block = _block(raw, name, where)
        params[attr] = _from_mapping(cls, block, where, name)
        if not block:
            applied[name] = "defaults"

    seed = raw.get("seed")
    if seed is None:
        applied["seed"] = 0
        seed = 0
    if not isinstance(raw.get("out"), (str, type(None))):
        raise ConfigError(f"{where}: out must be a directory name, got {raw['out']!r}")

    try:
        cfg = RunConfig(adc=adc, alpha=alpha, bounds=bounds, seed=seed, out_dir=raw.get("out"),
                        defaults_applied=applied, **params)
        verification_plan(adc.f_s, adc.v_dd, cfg.harness, seed)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    except PlanError as exc:
        raise ConfigError(f"{where}: harness: {exc}") from exc
    return cfg


@dataclass
class RunResult:
    config: RunConfig
    design: DesignPoint
    specs: DerivedSpecs
    coarse: CoarseReport
    spectrum: SpectrumReport
    global_state: OptimizerState
    local_result: LocalResult
    warning: str | None
    phase_timings: dict[str, float]

    def record_dict(self) -> dict:
        """Deterministic summary: reproducible from (config, seed) alone."""
        coarse = {k: np.asarray(v).tolist() for k, v in asdict(self.coarse).items()}
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.effective_dict(),
            "design": self.design.to_dict(),
            "specs": self.specs.to_dict(),
            "coarse": {**coarse, "feasible": self.coarse.feasible},
            "spectrum": self.spectrum.to_dict(),
            "global": {
                "generations": self.global_state.generation,
                "evals": self.global_state.evals,
                "n_converged": int(self.global_state.mask.sum()),
                "mask": self.global_state.mask.tolist(),
                "stop_reason": self.global_state.stop_reason,
                "warning": self.global_state.warning,
            },
            "local": {  # the scalar results; the trajectory has its own CSV
                **{k: v for k, v in asdict(self.local_result).items()
                   if k not in ("x_best", "history")},
                # a failed sine test scores +inf; n_expensive_failed counts those
                "f_expensive": _finite_or_none(self.local_result.f_expensive),
            },
            "warning": self.warning,
            "trace_files": dict(TRACE_FILES),
        }


def optimization_plan(f_s: float, v_dd: float, h: HarnessConfig, seed: int):
    return plan_test(
        f_s,
        h.k_points,
        h.m_segments,
        h.f_target_frac * f_s,
        h.amplitude_frac * v_dd / 2.0,
        seed=seed,
    )


def verification_plan(f_s: float, v_dd: float, h: HarnessConfig, seed: int):
    """Final reporting plan: K * verify_scale samples at the odd cycle
    count nearest verify_scale * J, ties to the smaller.  With verify_scale
    1 that is J, the optimization tone; any other verify_scale that keeps
    K a power of two is even, and the count is verify_scale * J - 1, a tone
    just below: at 1 MHz, K 512 and J 49 (95,703 Hz) verify at K 2048 and
    J 195 (95,215 Hz)."""
    base = optimization_plan(f_s, v_dd, h, seed)
    return plan_test(
        f_s,
        h.k_points * h.verify_scale,
        h.m_segments,
        base.f_in,
        base.amplitude,
        seed=seed,
    )


def run_pipeline(cfg: RunConfig, out_dir: str | Path | None = None) -> RunResult:
    """Derive budgets, explore globally, freeze, refine locally, verify.

    Both sine-test plans are built before any evaluation, so a harness
    setting no coherent plan satisfies fails at once with PlanError.
    The final design is the local end point when it meets every coarse
    constraint; otherwise the best coarse-feasible point seen during the
    local phase; otherwise the least-violating point with a warning.
    """
    timings: dict[str, float] = {}
    warning_parts: list[str] = []

    t0 = time.perf_counter()
    specs = DerivedSpecs.derive(cfg.adc.n_bits, cfg.adc.v_dd, cfg.alpha)
    plan = optimization_plan(cfg.adc.f_s, cfg.adc.v_dd, cfg.harness, cfg.seed)
    verify_plan = verification_plan(cfg.adc.f_s, cfg.adc.v_dd, cfg.harness, cfg.seed)
    coarse_problem = CoarseProblem(cfg=cfg.adc, specs=specs, bounds=cfg.bounds)
    problem = Problem(bounds=coarse_problem.box, evaluate_batch=coarse_problem.evaluate_batch)
    timings["derive"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    gstate = run_global(problem, cfg.global_params, cfg.seed)
    if gstate.warning:
        warning_parts.append(f"global: {gstate.warning}")
    timings["global"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    x_start = gstate.x[gstate.best]
    cheap = CheapObjective.anchored_at(coarse_problem, x_start)
    expensive = ExpensiveObjective(
        cfg=cfg.adc, plan=plan, bounds=cfg.bounds, noise=cfg.harness.noise
    )
    local_result = run_local(
        x_start,
        gstate.mask,
        cheap,
        expensive,
        cfg.local_params,
        coarse_problem.box,
    )
    x_final = local_result.x_best
    final_coarse = coarse_problem.report(x_final)
    if not final_coarse.feasible:
        if (x_feasible := cheap.best_feasible()) is not None:
            x_final = x_feasible
            final_coarse = coarse_problem.report(x_final)
            warning_parts.append(
                "local: end point violated a coarse constraint; "
                "kept best feasible point from the local trajectory"
            )
        else:
            warning_parts.append("local: no coarse-feasible point found")
    timings["local"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # coarse_problem.report checked x_final against the bounds.
    codes, _, power = sine_test(cfg.adc, x_final[None], verify_plan, cfg.harness.noise)
    spectrum = spectrum_metrics(codes, verify_plan, power, cfg.adc.n_bits)
    timings["verify"] = time.perf_counter() - t0

    result = RunResult(
        config=cfg,
        design=DesignPoint.from_vector(x_final),
        specs=specs,
        coarse=final_coarse,
        spectrum=spectrum,
        global_state=gstate,
        local_result=local_result,
        warning="; ".join(warning_parts) or None,
        phase_timings=timings,
    )
    if out_dir is not None:
        persist_run(result, Path(out_dir), verify_plan, codes)
    return result


def write_eval_log_csv(state: OptimizerState, path: str) -> None:
    """Per-candidate log of the global phase: id, variables, slacks, power."""
    slacks = [f"slack_{i}" for i in range(state.slack.shape[1])]
    rows = np.hstack([state.x, state.slack, state.objective[:, None]]).tolist()
    write_csv(path, ["candidate", *DESIGN_FIELDS, *slacks, "power"],
              ([cid, *row] for cid, row in enumerate(rows)))


def persist_run(result: RunResult, out: Path, plan, codes) -> None:
    out.mkdir(parents=True, exist_ok=True)
    path = {key: str(out / name) for key, name in TRACE_FILES.items()}
    for key, rows in [("global_history", result.global_state.history),
                      ("local_history", result.local_result.history)]:
        write_csv(path[key], list(rows[0]), (row.values() for row in rows))
    write_eval_log_csv(result.global_state, path["eval_log"])
    write_capture_csv(plan, codes, path["capture"])
    write_spectrum_csv(result.spectrum, path["spectrum"])
    record = result.record_dict()
    for name, content in [(path["design"], record["design"]), (path["specs"], record["specs"]),
                          (out / RECORD_NAME, record),
                          (out / "timings.json", result.phase_timings)]:
        write_json(name, content)
    emit_report(record, result.config, out)


def write_json(path: str | Path, content) -> None:
    """A JSON file as a run writes it: strict, keys sorted, indented, one
    final newline."""
    Path(path).write_text(json.dumps(content, sort_keys=True, indent=2, allow_nan=False) + "\n")


def summary_from_record(record: dict, cfg: RunConfig) -> str:
    """Human-readable run summary built purely from the persisted record,
    so regenerated reports cannot drift from the stored figures.  The
    config lines print cfg: the run's own, or the one the audit rebuilt
    from the record."""
    specs = record["specs"]
    c = record["coarse"]
    s = record["spectrum"]
    enob_check = enob_from_sndr(s["sndr_db"])
    ssre_slack = np.asarray(specs["ssre_bound"]) - np.asarray(c["ssre"])
    lines = [
        "sizing run summary",
        "==================",
        f"resolution      : {cfg.adc.n_bits} bits",
        f"sampling rate   : {cfg.adc.f_s:.6g} Hz",
        f"supply          : {cfg.adc.v_dd:.6g} V",
        f"alpha           : {cfg.alpha:.6g}",
        f"seed            : {cfg.seed}",
        "",
        "final design (SI units)",
    ]
    for name in DESIGN_FIELDS:
        lines.append(f"  {name:<10} = {record['design'][name]:.9e}")
    lines += [
        "",
        "coarse evaluation",
        f"  sampling error = {c['sampling_error']:.6e} V "
        f"(bound {specs['sampling_bound']:.6e})",
        f"  thermal noise  = {c['noise_rms']:.6e} V rms "
        f"(bound {specs['noise_bound']:.6e})",
        f"  worst ssre slack = {float(ssre_slack.min()):.6e}",
        f"  timing ok      = {c['timing_ok']}",
        f"  power          = {c['power']:.6e} W",
        f"  all feasible   = {c['feasible']}",
        "",
        "sine-test metrics",
        f"  SNDR  = {s['sndr_db']:.2f} dB (budget ceiling "
        f"{specs['sndr_ceiling']:.2f} dB)",
        f"  SFDR  = {s['sfdr_db']:.2f} dB",
        f"  ENOB  = {s['enob']:.3f} bits (cross-check {enob_check:.3f})",
        f"  FoM_W = {s['fom_w'] * 1e15:.3f} fJ/conv-step",
        f"  FoM_S = {s['fom_s']:.2f} dB",
        "",
    ]
    local = record["local"]
    lines.append(f"local phase: {local['iterations']} iterations, {local['rollbacks']} rollbacks")
    g = record["global"]
    lines.append(
        f"global phase: {g['generations']} generations, {g['evals']} evaluations, "
        f"{g['n_converged']} variables converged, stop reason: {g['stop_reason']}"
    )
    if record["warning"]:
        lines.append(f"warning: {record['warning']}")
    lines.append("")
    return "\n".join(lines)


def emit_report(record: dict, cfg: RunConfig, out: Path) -> None:
    """Write the human-readable summary and the flat metrics table; a
    record that lacks a figure they print raises before either is written."""
    summary = summary_from_record(record, cfg)
    rows = ([["power_w", record["coarse"]["power"]]]
            + [[key, record["spectrum"][key]] for key in SPECTRUM_FIGURES]
            + [["coarse_feasible", record["coarse"]["feasible"]]])
    (out / REPORT_FILES["summary"]).write_text(summary)
    write_csv(out / REPORT_FILES["metrics"], ["metric", "value"], rows)


def _no_constant(token: str):
    raise ValueError(f"{token} is not strict JSON")


def read_json(path: str | Path):
    """A JSON file's content; malformed or non-strict JSON (a NaN or
    Infinity token) or text that is not UTF-8 is a ConfigError naming the
    file."""
    try:
        return json.loads(Path(path).read_text(), parse_constant=_no_constant)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, a constant
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc


def load_design(path: str | Path, cfg: RunConfig) -> np.ndarray:
    """A design file's point as a (1, d) row inside cfg's bounds; any fault is a
    ConfigError naming the file."""
    raw = read_json(path)
    if missing := [name for name in DESIGN_FIELDS if not isinstance(raw, dict) or name not in raw]:
        raise ConfigError(f"{path}: design file missing fields: {missing}")
    row = np.array([[_number(raw[name], name, str(path)) for name in DESIGN_FIELDS]])
    try:
        check_designs(row, design_box(cfg.bounds))
    except BoundsError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return row


def _config_from_record(record: dict, where: str) -> RunConfig:
    """The run's config rebuilt from a record's config block by the
    loader's converter.  A record spells every field by its name, so an
    alias or any other key is an error; any failure is one ConfigError
    naming the record."""
    try:
        raw, parts = record["config"], {}
        for name, (attr, cls) in {"adc": ("adc", AdcConfig), **_BLOCKS}.items():
            block = raw[name]
            if not isinstance(block, dict):
                raise ConfigError(f"{where}: config.{name} must be a mapping, got {block!r}")
            if unknown := sorted(set(block) - {f.name for f in fields(cls)}):
                raise ConfigError(f"{where}: unknown config.{name} keys {unknown}")
            parts[attr] = _from_mapping(cls, block, where, f"config.{name}")
        parts.update(alpha=_number(raw["alpha"], "config.alpha", where),
                     bounds=_bounds(raw["bounds"], where, "config."), seed=raw["seed"],
                     defaults_applied=raw["defaults_applied"])
        if not isinstance(parts["defaults_applied"], dict):
            raise ConfigError(f"{where}: config.defaults_applied must be a mapping, "
                              f"got {parts['defaults_applied']!r}")
    except (KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{where}: cannot rebuild the recorded run: {exc!r}") from exc
    try:
        return RunConfig(**parts)
    except ConfigError as exc:
        raise ConfigError(f"{where}: config: {exc}") from exc


# A replay's wall clock differs, and the audit regenerates the report files.
_NOT_REPLAYED = {"timings.json", *REPORT_FILES.values()}
_SHORT = reprlib.Repr()
_SHORT.maxstring = 60  # room for a record line's key and value


def _first_difference(recorded: bytes, replayed: bytes) -> str:
    """Two different files' first differing line: its number and both
    lines, shortened."""
    old, new = recorded.splitlines(keepends=True), replayed.splitlines(keepends=True)
    n = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    shown = [_SHORT.repr(lines[n].decode(errors="replace")) if n < len(lines) else "end of file"
             for lines in (old, new)]
    return f"line {n + 1}: recorded {shown[0]}, replayed {shown[1]}"


def audit_run(run_dir: str | Path) -> list[str]:
    """Replay a finished run from its record's config and seed into a
    temporary directory, compare every file the replay writes but
    ``timings.json`` and the report files byte for byte with the run
    directory's, then copy the replay's report files into it.

    Returns the names of the compared files.  Raises ConfigError naming
    the record, and writes nothing in run_dir, when the record is of
    another schema version, its config does not rebuild or does not
    replay, or a file is missing, differs (its first differing line is
    named) or is not one the run writes.  A run replays byte for byte only
    on the numpy build and SIMD target that wrote it.
    """
    run_dir = Path(run_dir)
    path = run_dir / RECORD_NAME
    record = read_json(path)
    version = record.get("schema_version") if isinstance(record, dict) else None
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{path}: schema version {version!r}, expected {SCHEMA_VERSION}")
    cfg = _config_from_record(record, str(path))
    with tempfile.TemporaryDirectory() as tmp:
        replay = Path(tmp)
        try:
            run_pipeline(cfg, out_dir=replay)
        except SarSizerError as exc:
            raise ConfigError(f"{path}: the recorded run does not replay: {exc}") from exc
        written = {p.name for p in replay.iterdir()}
        compared = sorted(written - _NOT_REPLAYED)
        bad = [f"{name} is not a file the run writes"
               for name in sorted({p.name for p in run_dir.iterdir()} - written)]
        for name in compared:
            if not (run_dir / name).is_file():
                bad.append(f"{name} is missing")
            elif (old := (run_dir / name).read_bytes()) != (new := (replay / name).read_bytes()):
                bad.append(f"{name} {_first_difference(old, new)}")
        if bad:
            raise ConfigError(f"{path}: the replay of the recorded run differs: {'; '.join(bad)}")
        for name in REPORT_FILES.values():
            shutil.copyfile(replay / name, run_dir / name)
    return compared
