"""Behavioral asynchronous SAR ADC sizing toolkit.

Derives performance budgets from resolution and a scaling factor, explores
the sizing space with surrogate-assisted constrained differential
evolution over cheap single-point tests, freezes converged variables, and
refines the rest with a blended multi-fidelity pattern search whose
expensive fidelity is a coherent sine test converted in fixed-size blocks.
"""

from .adc import (
    DESIGN_FIELDS,
    AdcConfig,
    AdcModel,
    Conversions,
    DesignPoint,
    build_model,
    convert_rows,
    sample_input,
)
from .coarse import CoarseReport, evaluate_coarse, power_estimate
from .errors import BoundsError, ConfigError, MetricsError, PlanError, SpecError
from .global_opt import (
    GlobalParams,
    OptimizerState,
    Problem,
    de_offspring,
    detect_convergence,
    feasibility_better,
    init_population,
    run_global,
    surrogate_rank,
)
from .local_opt import LocalParams, LocalResult, blend_decision, exploratory_search, run_local
from .pipeline import RunConfig, RunResult, audit_run, load_config, run_pipeline
from .sndr import (
    SpectrumReport,
    TestPlan,
    plan_test,
    run_segments,
    spectrum_metrics,
)
from .specs import DerivedSpecs, derive_noise_bound, derive_sampling_bound, derive_sndr_ceiling, derive_ssre_bounds

__version__ = "0.1.0"
