"""Blended Hooke-Jeeves pattern search with selective rollback.

Classic coordinate-probe pattern search over the unconverged variables,
with a twist: every few accepted moves the expensive evaluator is
consulted.  If a penalty built from expensive-side regression outweighs
the cheap objective, the search rolls back to the last expensive-verified
point, shrinks its steps, and shifts trust toward the expensive signal by
raising the blend weight.  Frozen coordinates are never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, SarSizerError, require

SHRINK = 0.5
MAX_EXTRAPOLATIONS = 8
# The keys of a history row, in order: local_history.csv's columns.
HISTORY_FIELDS = ("iteration", "f_cheap", "f_expensive", "w", "delta_norm", "rollback")


@dataclass(frozen=True)
class LocalParams:
    delta_init: float = 0.1        # initial step, fraction of each variable's range
    expensive_every: float = 5.0   # accepted moves between expensive checks; inf = never
    penalty_scale: float = 1.0     # multiplies expensive regression in the penalty
    delta_w: float = 0.1           # blend-weight increment after each rollback
    eps: float = 1e-3              # terminate when ||delta[free]|| drops below this
    w0: float = 0.5                # initial blend weight
    max_iter: int = 200

    def __post_init__(self) -> None:
        lam = self.expensive_every
        require(lam == math.inf or lam >= 1 and float(lam).is_integer(),
                "expensive_every", "an integer >= 1 or inf", lam)
        require(self.penalty_scale > 0, "penalty_scale", "positive", self.penalty_scale)
        require(self.eps > 0, "eps", "positive", self.eps)
        require(0.0 < self.delta_init <= 1.0, "delta_init", "in (0, 1]", self.delta_init)
        require(0.0 < self.delta_w <= 1.0, "delta_w", "in (0, 1]", self.delta_w)
        require(0.0 <= self.w0 <= 1.0, "w0", "in [0, 1]", self.w0)
        require(self.max_iter >= 1, "max_iter", ">= 1", self.max_iter)


@dataclass
class LocalResult:
    x_best: np.ndarray
    f_cheap: float
    f_expensive: float | None
    iterations: int
    rollbacks: int
    n_cheap: int
    n_expensive: int
    n_expensive_failed: int   # expensive evaluations that raised a toolkit or FP error
    history: list[dict] = field(default_factory=list)


def blend_decision(
    f_cheap_val: float,
    f_exp_val: float,
    f_backup: float,
    w: float,
    penalty_scale: float,
) -> tuple[float, bool]:
    """Blend the cheap objective with an expensive-regression penalty.

    penalty = penalty_scale * max(0, f_exp - f_backup); the blend is
    (1-w)*cheap + w*penalty, and a rollback triggers when the blend
    exceeds the cheap value alone (i.e. the penalty outweighs it).  A
    failed expensive evaluation arrives as +inf and always penalizes,
    even when the backup value itself is +inf; with w = 0 the expensive
    side carries no weight at all.
    """
    if math.isinf(f_exp_val) and f_exp_val > 0:
        penalty = math.inf
    else:
        penalty = penalty_scale * max(0.0, f_exp_val - f_backup)
    f_blend = (1.0 - w) * f_cheap_val + (w * penalty if w > 0.0 else 0.0)
    return f_blend, f_blend > f_cheap_val


def exploratory_search(
    x: np.ndarray,
    delta: np.ndarray,
    mask: np.ndarray,
    f_cheap: Callable[[np.ndarray], np.ndarray],
    bounds: np.ndarray,
    f_at_x: float,
) -> tuple[np.ndarray, float] | None:
    """Coordinate probe around x, skipping frozen dims.

    Per free dim, try +delta then -delta (in range units), accepting the
    first probe that improves and moving on to the next dim; probes clip to
    bounds, and one clipped onto the current value is skipped.  The probes
    of every remaining dim are scored around the current point in one
    batch, walked in that order, and re-batched for the dims after an
    accepted one, so the accepted moves are the one-probe-at-a-time
    sweep's.  Returns the improved point and its value, or None if no probe
    improved.
    """
    # Per-coordinate arithmetic on Python floats: the same IEEE doubles as
    # numpy's scalars, without their per-operation overhead.
    lo, hi = bounds[:, 0].tolist(), bounds[:, 1].tolist()
    remaining = np.flatnonzero(~mask).tolist()
    span = bounds[remaining, 1] - bounds[remaining, 0]
    steps = dict(zip(remaining, (delta[remaining] * span).tolist()))
    current, f_cur = np.asarray(x, dtype=float).copy(), f_at_x
    improved = False
    while remaining:
        base, dims, values = current.tolist(), [], []
        for j in remaining:
            for direction in (1.0, -1.0):
                value = min(max(base[j] + direction * steps[j], lo[j]), hi[j])
                if value != base[j]:
                    dims.append(j)
                    values.append(value)
        if not dims:
            break
        probes = np.repeat(current[None], len(dims), axis=0)
        probes[np.arange(len(dims)), dims] = values
        for cand, j, f_cand in zip(probes, dims, f_cheap(probes)):
            if f_cand < f_cur:
                current, f_cur = cand.copy(), f_cand
                improved = True
                remaining = remaining[remaining.index(j) + 1:]
                break
        else:
            break
    return (current, f_cur) if improved else None


def run_local(
    x0: np.ndarray,
    mask: np.ndarray,
    f_cheap: Callable[[np.ndarray], np.ndarray],
    f_expensive: Callable[[np.ndarray], float],
    params: LocalParams,
    bounds: np.ndarray,
) -> LocalResult:
    """Refine the free coordinates of x0; frozen ones pass through untouched.

    f_cheap scores a batch: (n, d) rows in, (n,) values out; n_cheap counts
    rows.  The cheap objective should be normalized nonnegative, otherwise the
    rollback test degenerates.  The expensive value is read at the start
    point, every params.expensive_every accepted moves and at the end
    point; at expensive_every = inf never, and the result's f_expensive is
    None.  f_expensive must be deterministic in the point: it runs at most
    once per distinct point (by its bytes) of the run, and n_expensive
    counts those runs.  After a rollback the pattern chain can clip onto
    the same rejected point on a bound again, and its check is then read
    back.  An expensive evaluator that raises a
    SarSizerError or FloatingPointError, or returns a non-finite value,
    counts as +inf, which forces the rollback path rather than aborting
    the run.  Any other exception is a bug and propagates.
    """
    x0 = np.asarray(x0, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    free = ~mask
    d = len(x0)
    if bounds.shape != (d, 2):
        raise ConfigError("bounds shape must match x0")

    counts = {"cheap": 0, "expensive": 0, "failed": 0}
    checked: dict[bytes, float] = {}  # each point's sine-test value, by its bytes

    def cheap(xs: np.ndarray) -> list[float]:
        counts["cheap"] += len(xs)
        return np.asarray(f_cheap(xs), dtype=float).tolist()

    def expensive(x: np.ndarray) -> float:
        key = x.tobytes()
        if key not in checked:
            counts["expensive"] += 1
            try:
                val = float(f_expensive(x))
            except (SarSizerError, FloatingPointError):
                counts["failed"] += 1
                val = math.inf
            checked[key] = val if math.isfinite(val) else math.inf
        return checked[key]

    delta = np.where(free, params.delta_init, 0.0)
    x_best = x0.copy()
    x_backup = x0.copy()
    w = params.w0
    c = 0
    rollbacks = 0
    history: list[dict] = []

    lam = params.expensive_every
    [f_cheap_best] = cheap(x_best[None])
    f_cheap_backup = f_cheap_best
    f_backup = expensive(x_best) if math.isfinite(lam) else 0.0

    for iteration in range(1, params.max_iter + 1):
        sampled_exp: float | None = None
        rolled = False
        found = exploratory_search(
            x_best, delta, mask, cheap, bounds, f_at_x=f_cheap_best
        )
        if found is not None:
            x_new, f_new = found
            # Pattern move: extrapolate along the accepted direction,
            # doubling the stride, capped; the whole chain is scored in one
            # batch and its longest improving prefix accepted.
            step = x_new - x_best
            chain = [x_new]
            for _ in range(MAX_EXTRAPOLATIONS):
                x_try = np.minimum(np.maximum(chain[-1] + step, bounds[:, 0]), bounds[:, 1])
                if (x_try == chain[-1]).all():
                    break
                chain.append(x_try)
                step = step * 2.0
            x_best, f_cheap_best = x_new, f_new
            if len(chain) > 1:
                for x_try, f_try in zip(chain[1:], cheap(np.array(chain[1:]))):
                    if not f_try < f_cheap_best:
                        break
                    x_best, f_cheap_best = x_try, f_try
            c += 1
            if math.isfinite(lam) and c % int(lam) == 0:
                f_exp = expensive(x_best)
                sampled_exp = f_exp
                _, rollback = blend_decision(
                    f_cheap_best, f_exp, f_backup, w, params.penalty_scale
                )
                if rollback:
                    x_best = x_backup.copy()
                    f_cheap_best = f_cheap_backup
                    delta[free] *= SHRINK
                    w = min(w + params.delta_w, 1.0)
                    rollbacks += 1
                    rolled = True
                else:
                    x_backup = x_best.copy()
                    f_backup = f_exp
                    f_cheap_backup = f_cheap_best
        else:
            delta[free] *= SHRINK

        norm = float(np.linalg.norm(delta[free])) if free.any() else 0.0
        history.append(dict(zip(HISTORY_FIELDS, (iteration, f_cheap_best, sampled_exp, w, norm,
                                                 int(rolled)))))
        if norm < params.eps:
            break

    f_exp_best = expensive(x_best) if math.isfinite(lam) else None

    return LocalResult(
        x_best=x_best,
        f_cheap=f_cheap_best,
        f_expensive=f_exp_best,
        iterations=iteration,
        rollbacks=rollbacks,
        n_cheap=counts["cheap"],
        n_expensive=counts["expensive"],
        n_expensive_failed=counts["failed"],
        history=history,
    )
