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
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import global_opt, local_opt
from .adc import DESIGN_FIELDS, AdcConfig, DesignPoint, build_model
from .coarse import CoarseReport, evaluate_coarse
from .csvio import write_csv
from .errors import ConfigError
from .global_opt import GlobalParams, OptimizerState, Problem, run_global
from .local_opt import LocalParams, LocalResult, run_local
from .problem import CheapObjective, CoarseProblem, ExpensiveObjective, bounds_array
from .rng import is_seed
from .sndr import (
    SpectrumReport,
    enob_from_sndr,
    plan_test,
    run_segments,
    spectrum_metrics,
    write_capture_csv,
    write_spectrum_csv,
)
from .specs import DerivedSpecs

RECORD_NAME = "run_record.json"
SCHEMA_VERSION = 2


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
        if not is_seed(self.seed):
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

    def effective_dict(self) -> dict:
        global_params = asdict(self.global_params)
        del global_params["seed"]  # the run's seed is recorded once, below
        return {
            "adc": asdict(self.adc),
            "alpha": self.alpha,
            "bounds": {k: list(v) for k, v in self.bounds.items()},
            "global": global_params,
            "local": asdict(self.local_params),
            "harness": asdict(self.harness),
            "seed": self.seed,
            "defaults_applied": self.defaults_applied,
        }


_KNOWN_TOP_KEYS = {
    "N", "n_bits", "fs", "f_s", "V_DD", "v_dd", "T", "temp_k",
    "kappa_cmp", "kappa_sw", "e_dff", "r_drv_cap", "v_floor",
    "alpha", "bounds", "global", "local", "harness", "seed", "out",
}


def _pick(raw: dict, *names, default=None, applied=None, label=None):
    for name in names:
        if name in raw:
            return raw[name]
    if applied is not None:
        applied[label or names[-1]] = default
    return default


def _integer(value, name: str, where: str, minimum: int = 0, optional: bool = False):
    """An integer config value: an int or integral float, never a bool."""
    if optional and value is None:
        return None
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


def load_config(path_or_text: str | Path, is_text: bool = False) -> RunConfig:
    """Parse and validate a YAML run configuration.

    Minimal configs need only resolution, sampling rate, and supply;
    everything else defaults, and each applied default is echoed into the
    run record.  Unknown top-level keys warn but do not fail.
    """
    if is_text:
        text = str(path_or_text)
        where = "<string>"
    else:
        text = Path(path_or_text).read_text()
        where = str(path_or_text)
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: top level must be a mapping")

    unknown = sorted(set(raw) - _KNOWN_TOP_KEYS)
    if unknown:
        warnings.warn(f"{where}: ignoring unknown keys {unknown}", stacklevel=2)

    applied: dict = {}
    n_bits = _pick(raw, "N", "n_bits", label="n_bits")
    f_s = _pick(raw, "fs", "f_s", label="f_s")
    v_dd = _pick(raw, "V_DD", "v_dd", label="v_dd")
    for name, value in (("n_bits", n_bits), ("f_s", f_s), ("v_dd", v_dd)):
        if value is None:
            raise ConfigError(f"{where}: missing required key {name}")

    def optional(*names, default):
        value = _pick(raw, *names, default=default, applied=applied)
        return _number(value, names[-1], where)

    adc = AdcConfig(
        n_bits=_integer(n_bits, "n_bits", where, 2),
        f_s=_number(f_s, "f_s", where),
        v_dd=_number(v_dd, "v_dd", where),
        temp_k=optional("T", "temp_k", default=300.0),
        kappa_cmp=optional("kappa_cmp", default=1e-25),
        kappa_sw=optional("kappa_sw", default=1e-13),
        e_dff=optional("e_dff", default=1e-15),
        r_drv_cap=optional("r_drv_cap", default=100e3),
        v_floor=optional("v_floor", default=1e-6),
    )

    alpha = optional("alpha", default=1.0)
    if alpha <= 0:
        raise ConfigError(f"{where}: alpha must be positive, got {alpha}")

    bounds = default_bounds(adc)
    user_bounds = _block(raw, "bounds", where)
    for key, pair in user_bounds.items():
        if key not in DESIGN_FIELDS:
            raise ConfigError(f"{where}: unknown design variable {key!r} in bounds")
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{where}: bounds for {key} must be a [lo, hi] pair")
        lo, hi = (_number(v, f"bounds.{key}", where) for v in pair)
        if not 0 < lo < hi:
            raise ConfigError(f"{where}: bounds for {key} need 0 < lo < hi")
        bounds[key] = (lo, hi)
    if not user_bounds:
        applied["bounds"] = "default sizing box"

    g = _block(raw, "global", where)
    global_params = GlobalParams(
        pop_size=_integer(g.get("pop_size"), "global.pop_size", where, 5, optional=True),
        f_weight=_number(g.get("F", g.get("f_weight", 0.5)), "global.F", where),
        cr=_number(g.get("CR", g.get("cr", 0.9)), "global.CR", where),
        k_infill=_integer(g.get("k_infill"), "global.k_infill", where, 1, optional=True),
        theta_conv=_number(g.get("theta_conv", 0.02), "global.theta_conv", where),
        n_conv_target=_integer(g.get("n_conv_target"), "global.n_conv_target", where,
                               optional=True),
        max_evals=_integer(g.get("max_evals", 5000), "global.max_evals", where),
    )
    if not g:
        applied["global"] = "defaults"

    lo = _block(raw, "local", where)
    lam = lo.get("lambda", lo.get("expensive_every", 5))
    local_params = LocalParams(
        delta_init=_number(lo.get("delta_init", 0.1), "local.delta_init", where),
        expensive_every=math.inf if lam in ("inf", None, math.inf)
        else float(_integer(lam, "local.lambda", where, 1)),
        penalty_scale=_number(lo.get("a", lo.get("penalty_scale", 1.0)), "local.a", where),
        delta_w=_number(lo.get("delta_w", 0.1), "local.delta_w", where),
        eps=_number(lo.get("eps", 1e-3), "local.eps", where),
        w0=_number(lo.get("w0", 0.5), "local.w0", where),
        max_iter=_integer(lo.get("max_iter", 200), "local.max_iter", where),
        blend_at=lo.get("blend_at", "candidate"),
    )
    if not lo:
        applied["local"] = "defaults"

    h = _block(raw, "harness", where)
    noise = h.get("noise", True)
    if not isinstance(noise, bool):
        raise ConfigError(f"{where}: harness.noise must be true or false, got {noise!r}")
    harness = HarnessConfig(
        k_points=_integer(h.get("K", h.get("k_points", 1024)), "harness.K", where, 1),
        m_segments=_integer(h.get("M", h.get("m_segments", 4)), "harness.M", where, 1),
        f_target_frac=_number(h.get("f_target_frac", 0.097), "harness.f_target_frac", where),
        amplitude_frac=_number(h.get("amplitude_frac", 0.95), "harness.amplitude_frac", where),
        noise=noise,
        verify_scale=_integer(h.get("verify_scale", 4), "harness.verify_scale", where, 1),
    )
    if not h:
        applied["harness"] = "defaults"

    seed = raw.get("seed")
    if seed is None:
        applied["seed"] = 0
        seed = 0
    if not isinstance(raw.get("out"), (str, type(None))):
        raise ConfigError(f"{where}: out must be a directory name, got {raw['out']!r}")

    return RunConfig(
        adc=adc,
        alpha=alpha,
        bounds=bounds,
        global_params=global_params,
        local_params=local_params,
        harness=harness,
        seed=seed,
        out_dir=raw.get("out"),
        defaults_applied=applied,
    )


@dataclass
class RunResult:
    config: RunConfig
    design: DesignPoint
    specs: DerivedSpecs
    coarse: CoarseReport
    spectrum: SpectrumReport
    global_state: OptimizerState
    local_result: LocalResult | None
    warning: str | None
    phase_timings: dict[str, float]
    trace_files: dict[str, str]

    def record_dict(self) -> dict:
        """Deterministic summary: reproducible from (config, seed) alone."""
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.effective_dict(),
            "design": self.design.to_dict(),
            "specs": self.specs.to_dict(),
            "coarse": {
                **{k: np.asarray(v).tolist() for k, v in asdict(self.coarse).items()},
                "feasible": self.coarse.feasible,
            },
            "spectrum": self.spectrum.to_dict(),
            "global": {
                "generations": self.global_state.generation,
                "evals": self.global_state.evals,
                "n_converged": int(self.global_state.mask.sum()),
                "mask": self.global_state.mask.tolist(),
                "warning": self.global_state.warning,
            },
            "local": None
            if self.local_result is None
            else {  # the scalar results; the trajectory has its own CSV
                k: v for k, v in asdict(self.local_result).items()
                if k not in ("x_best", "history")
            },
            "warning": self.warning,
            "trace_files": self.trace_files,
        }

    def record_json(self) -> str:
        return json.dumps(self.record_dict(), sort_keys=True, indent=2) + "\n"


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
    """Final reporting plan: the optimization tone at a longer capture."""
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
    problem = Problem(
        bounds=bounds_array(cfg.bounds), evaluate_batch=coarse_problem.evaluate_batch
    )
    timings["derive"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    gstate = run_global(problem, replace(cfg.global_params, seed=cfg.seed))
    if gstate.warning:
        warning_parts.append(f"global: {gstate.warning}")
    timings["global"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    x_start = gstate.best_x.copy()
    local_result: LocalResult | None = None
    x_final = x_start
    if gstate.best is not None:
        cheap = CheapObjective.anchored_at(coarse_problem, x_start)
        expensive = ExpensiveObjective(
            cfg=cfg.adc, plan=plan, bounds=cfg.bounds, noise=cfg.harness.noise
        )
        feasible_tracker = _FeasibleTracker(cheap)
        local_result = run_local(
            x_start,
            gstate.mask,
            feasible_tracker,
            expensive,
            cfg.local_params,
            bounds_array(cfg.bounds),
        )
        x_final = local_result.x_best
        if not coarse_problem.report(x_final).feasible:
            fallback = feasible_tracker.best_feasible_x
            if fallback is not None:
                x_final = fallback
                warning_parts.append(
                    "local: end point violated a coarse constraint; "
                    "kept best feasible point from the local trajectory"
                )
            else:
                warning_parts.append("local: no coarse-feasible point found")
    timings["local"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    design = DesignPoint.from_vector(x_final)
    model = build_model(design, cfg.adc, cfg.bounds)
    final_coarse = evaluate_coarse(model, specs)
    codes = run_segments(model, verify_plan, noise=cfg.harness.noise)
    spectrum = spectrum_metrics(codes, verify_plan, final_coarse.power, cfg.adc.n_bits)
    timings["verify"] = time.perf_counter() - t0

    result = RunResult(
        config=cfg,
        design=design,
        specs=specs,
        coarse=final_coarse,
        spectrum=spectrum,
        global_state=gstate,
        local_result=local_result,
        warning="; ".join(warning_parts) or None,
        phase_timings=timings,
        trace_files={},
    )
    if out_dir is not None:
        persist_run(result, Path(out_dir), verify_plan, codes)
    return result


class _FeasibleTracker:
    """Wrap the cheap objective, remembering the best coarse-feasible point
    visited, so the pipeline can fall back to it if the local end point
    trades a small violation for power."""

    def __init__(self, cheap: CheapObjective):
        self.cheap = cheap
        self.best_feasible_x: np.ndarray | None = None
        self._best_val = float("inf")

    def __call__(self, x: np.ndarray) -> float:
        power, slack = self.cheap.problem(x)
        value = self.cheap.value_from(power, slack)
        if np.all(slack >= 0.0) and value < self._best_val:
            self._best_val = value
            self.best_feasible_x = np.asarray(x, dtype=float).copy()
        return value


def write_eval_log_csv(archive, n_constraints: int, path: str) -> None:
    """Per-candidate log of the global phase: id, variables, slacks, power."""
    write_csv(
        path,
        ["candidate"]
        + list(DESIGN_FIELDS)
        + [f"slack_{i}" for i in range(n_constraints)]
        + ["power"],
        (
            [cid] + rec.x.tolist() + rec.slack.tolist() + [rec.objective]
            for cid, rec in enumerate(archive)
        ),
    )


def persist_run(result: RunResult, out: Path, plan, codes) -> None:
    out.mkdir(parents=True, exist_ok=True)
    traces = {
        "global_history": "global_history.csv",
        "local_history": "local_history.csv",
        "eval_log": "eval_log.csv",
        "capture": "capture.csv",
        "spectrum": "spectrum.csv",
        "design": "design.json",
        "specs": "specs.json",
    }
    result.trace_files = traces

    global_opt.write_history_csv(result.global_state.history, str(out / traces["global_history"]))
    local_opt.write_history_csv(
        result.local_result.history if result.local_result else [],
        str(out / traces["local_history"]),
    )
    write_eval_log_csv(
        result.global_state.archive,
        len(result.coarse.slack),
        str(out / traces["eval_log"]),
    )
    write_capture_csv(plan, codes, str(out / traces["capture"]))
    write_spectrum_csv(result.spectrum, str(out / traces["spectrum"]))
    (out / traces["design"]).write_text(
        json.dumps(result.design.to_dict(), sort_keys=True, indent=2) + "\n"
    )
    (out / traces["specs"]).write_text(result.specs.to_json(indent=2) + "\n")
    (out / RECORD_NAME).write_text(result.record_json())
    (out / "timings.json").write_text(
        json.dumps(result.phase_timings, sort_keys=True, indent=2) + "\n"
    )
    emit_report(result.record_dict(), out)


def summary_from_record(record: dict) -> str:
    """Human-readable run summary built purely from the persisted record,
    so regenerated reports cannot drift from the stored figures."""
    adc = record["config"]["adc"]
    specs = record["specs"]
    c = record["coarse"]
    s = record["spectrum"]
    enob_check = enob_from_sndr(s["sndr_db"])
    ssre_slack = np.asarray(specs["ssre_bound"]) - np.asarray(c["ssre"])
    lines = [
        "sizing run summary",
        "==================",
        f"resolution      : {adc['n_bits']} bits",
        f"sampling rate   : {adc['f_s']:.6g} Hz",
        f"supply          : {adc['v_dd']:.6g} V",
        f"alpha           : {record['config']['alpha']:.6g}",
        f"seed            : {record['config']['seed']}",
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
    if local is None or local["iterations"] == 0:
        lines.append("local phase: no iterations")
    else:
        lines.append(
            f"local phase: {local['iterations']} iterations, "
            f"{local['rollbacks']} rollbacks"
        )
    g = record["global"]
    lines.append(
        f"global phase: {g['generations']} generations, {g['evals']} evaluations, "
        f"{g['n_converged']} variables converged"
    )
    if record["warning"]:
        lines.append(f"warning: {record['warning']}")
    lines.append("")
    return "\n".join(lines)


def summary_text(result: RunResult) -> str:
    return summary_from_record(result.record_dict())


def emit_report(record: dict, out: Path) -> dict[str, str]:
    """Write the human-readable summary and the flat metrics table."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.txt").write_text(summary_from_record(record))
    spectrum_keys = ("sndr_db", "sfdr_db", "enob", "fom_w", "fom_s")
    write_csv(
        out / "metrics.csv",
        ["metric", "value"],
        [["power_w", record["coarse"]["power"]]]
        + [[key, record["spectrum"][key]] for key in spectrum_keys]
        + [["coarse_feasible", record["coarse"]["feasible"]]],
    )
    return {"summary": "summary.txt", "metrics": "metrics.csv"}


def load_design(path: str | Path) -> DesignPoint:
    raw = json.loads(Path(path).read_text())
    missing = [name for name in DESIGN_FIELDS if not isinstance(raw, dict) or name not in raw]
    if missing:
        raise ConfigError(f"design file missing fields: {missing}")
    return DesignPoint(**{name: _number(raw[name], name, str(path)) for name in DESIGN_FIELDS})


def audit_run(run_dir: str | Path) -> dict:
    """Recompute every summary number from the persisted raw artifacts.

    Returns a dict of checks, each mapping to (recorded, recomputed).
    Raises ConfigError when any check disagrees.
    """
    run_dir = Path(run_dir)
    record = json.loads((run_dir / RECORD_NAME).read_text())
    cfg_dict = record["config"]
    adc = AdcConfig(**cfg_dict["adc"])
    specs = DerivedSpecs.derive(adc.n_bits, adc.v_dd, cfg_dict["alpha"])
    bounds = {k: tuple(v) for k, v in cfg_dict["bounds"].items()}
    design = load_design(run_dir / record["trace_files"]["design"])
    model = build_model(design, adc, bounds)
    coarse = evaluate_coarse(model, specs)

    rows = (run_dir / record["trace_files"]["capture"]).read_text().splitlines()[1:]
    codes = np.array([int(r.split(",")[2]) for r in rows])
    harness = HarnessConfig(**cfg_dict["harness"])
    verify_plan = verification_plan(adc.f_s, adc.v_dd, harness, cfg_dict["seed"])
    spectrum = spectrum_metrics(codes, verify_plan, coarse.power, adc.n_bits)

    checks = {
        "power": (record["coarse"]["power"], coarse.power),
        "sampling_error": (record["coarse"]["sampling_error"], coarse.sampling_error),
        "noise_rms": (record["coarse"]["noise_rms"], coarse.noise_rms),
        "sndr_db": (record["spectrum"]["sndr_db"], spectrum.sndr_db),
        "sfdr_db": (record["spectrum"]["sfdr_db"], spectrum.sfdr_db),
        "enob": (record["spectrum"]["enob"], spectrum.enob),
        "fom_w": (record["spectrum"]["fom_w"], spectrum.fom_w),
        "fom_s": (record["spectrum"]["fom_s"], spectrum.fom_s),
        "enob_identity": (
            record["spectrum"]["enob"],
            enob_from_sndr(record["spectrum"]["sndr_db"]),
        ),
    }
    bad = {
        name: pair
        for name, pair in checks.items()
        if not np.isclose(pair[0], pair[1], rtol=1e-12, atol=0)
    }
    if bad:
        raise ConfigError(f"audit mismatches: {bad}")
    return checks
