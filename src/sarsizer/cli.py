"""Command-line entry point.

Subcommands:
  run     execute the full sizing pipeline from a YAML config; exit 1 when
          the final design violates a coarse constraint
  eval    coarse-evaluate a specific design against derived budgets
  sndr    run the coherent sine test on a specific design
  report  audit a finished run by replaying it from its record's config
          and seed (a run replays byte for byte only on the numpy build and
          SIMD target that wrote it), regenerate its report files and print
          its summary

Errors print as one line and exit 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .coarse import evaluate_coarse
from .errors import SarSizerError
from .pipeline import (
    REPORT_FILES,
    RunConfig,
    audit_run,
    load_config,
    load_design,
    optimization_plan,
    run_pipeline,
)
from .sndr import sine_test, spectrum_metrics, write_capture_csv, write_spectrum_csv
from .specs import DerivedSpecs


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override config seed")


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _out_dir(cfg) -> Path:
    if cfg.out_dir:
        return Path(cfg.out_dir)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"run-{stamp}-seed{cfg.seed}"


def cmd_run(args) -> int:
    cfg = _load(args)
    if args.out is not None:
        cfg.out_dir = args.out
    out = _out_dir(cfg)
    result = run_pipeline(cfg, out_dir=out)
    print((out / REPORT_FILES["summary"]).read_text())
    print(f"artifacts written to {out}")
    return 0 if result.coarse.feasible else 1


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    specs = DerivedSpecs.derive(cfg.adc.n_bits, cfg.adc.v_dd, cfg.alpha)
    report = evaluate_coarse(cfg.adc, load_design(args.design, cfg), specs).row(0)
    labels = specs.constraint_labels()
    print(f"power           = {report.power:.6e} W")
    print(f"sampling error  = {report.sampling_error:.6e} V")
    print(f"thermal noise   = {report.noise_rms:.6e} V rms")
    print(f"timing ok       = {report.timing_ok}")
    print("slack (positive = satisfied):")
    for label, slack in zip(labels, report.slack):
        print(f"  {label:<16} {slack:+.6e}")
    print(f"feasible        = {report.feasible}")
    return 0 if report.feasible else 1


def cmd_sndr(args) -> int:
    cfg = _load(args)
    plan = optimization_plan(cfg.adc.f_s, cfg.adc.v_dd, cfg.harness, cfg.seed)
    codes, ok, power = sine_test(cfg.adc, load_design(args.design, cfg), plan, cfg.harness.noise)
    report = spectrum_metrics(codes, plan, power, cfg.adc.n_bits)
    print(f"capture         = {plan.k_points} points, {plan.m_segments} segments")
    print(f"input frequency = {plan.f_in:.6e} Hz ({plan.j_cycles} cycles)")
    print(f"timing failures = {int((~ok).sum())}")
    print(f"SNDR            = {report.sndr_db:.2f} dB")
    print(f"SFDR            = {report.sfdr_db:.2f} dB")
    print(f"ENOB            = {report.enob:.3f} bits")
    print(f"FoM_W           = {report.fom_w * 1e15:.3f} fJ/conv-step")
    print(f"FoM_S           = {report.fom_s:.2f} dB")
    if args.export:
        out = Path(args.export)
        out.mkdir(parents=True, exist_ok=True)
        write_capture_csv(plan, codes, str(out / "capture.csv"))
        write_spectrum_csv(report, str(out / "spectrum.csv"))
        print(f"exports written to {out}")
    return 0


def cmd_report(args) -> int:
    compared = audit_run(args.run_dir)  # regenerates the report files
    print(f"audit of {args.run_dir}: the replay wrote the same {', '.join(compared)}")
    print((Path(args.run_dir) / REPORT_FILES["summary"]).read_text())
    print(f"report files regenerated: {', '.join(sorted(REPORT_FILES.values()))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarsizer",
        description="behavioral SAR ADC sizing via global-local optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full sizing pipeline")
    p_run.add_argument("config")
    _add_seed(p_run)
    p_run.add_argument("--out", type=str, default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="coarse-evaluate a design")
    p_eval.add_argument("config")
    p_eval.add_argument("--design", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_sndr = sub.add_parser("sndr", help="sine-test a design")
    p_sndr.add_argument("config")
    p_sndr.add_argument("--design", required=True)
    p_sndr.add_argument("--export", type=str, default=None)
    _add_seed(p_sndr)
    p_sndr.set_defaults(func=cmd_sndr)

    p_rep = sub.add_parser("report", help="audit a finished run by replaying it")
    p_rep.add_argument("run_dir")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    np.seterr(over="ignore")  # saturating exponentials are expected
    args = build_parser().parse_args(argv)
    return args.func(args)


def console_main(argv: list[str] | None = None) -> int:
    """main, with a toolkit or file error printed as one line, exit 2."""
    try:
        return main(argv)
    except (SarSizerError, OSError) as exc:
        print(f"sarsizer: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console_main())
