"""Surrogate-assisted constrained differential evolution.

Generational DE/rand/1/bin over cheap evaluations.  An inverse-distance
surrogate ranks each generation's offspring and only the most promising
few are actually evaluated (infill); survivor selection is one-to-one
against the parent under feasibility dominance.  A generation's infill
is chosen before any of it is evaluated, so it is evaluated as one batch.
The phase ends once a feasible best exists and enough variables have
collapsed to a small fraction of their range, handing the rest to the
local optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .csvio import write_csv
from .errors import ConfigError

PREDICT_BLOCK = 8  # surrogate query rows per neighbour selection


@dataclass(frozen=True)
class EvalRecord:
    """One truly evaluated candidate."""

    x: np.ndarray
    objective: float
    slack: np.ndarray

    @property
    def feasible(self) -> bool:
        return bool(np.all(self.slack >= 0.0))

    @property
    def violation(self) -> float:
        return float(np.sum(np.maximum(0.0, -self.slack)))


@dataclass
class Problem:
    """Bounded minimization with signed constraint margins.

    ``evaluate_batch`` maps an (n, d) array to objectives (n,) and slacks
    (n, m), so a whole generation's infill is one call.
    """

    bounds: np.ndarray  # shape (d, 2)
    evaluate_batch: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self) -> None:
        self.bounds = np.asarray(self.bounds, dtype=float)
        if self.bounds.ndim != 2 or self.bounds.shape[1] != 2:
            raise ConfigError("bounds must have shape (d, 2)")
        if np.any(self.bounds[:, 0] >= self.bounds[:, 1]):
            raise ConfigError("each bound must satisfy lo < hi")
        if self.evaluate_batch is None:
            raise ConfigError("need evaluate_batch")

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    def run_batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objectives (n,) and slacks (n, m) of the rows of xs."""
        obj, slack = self.evaluate_batch(xs)
        n = len(xs)
        return np.asarray(obj, float).reshape(n), np.asarray(slack, float).reshape(n, -1)


class IdwSurrogate:
    """Inverse-distance-weighted k-nearest regression in normalized space."""

    def __init__(self, bounds: np.ndarray, k: int = 5, min_points: int | None = None):
        self.bounds = np.asarray(bounds, dtype=float)
        self.span = self.bounds[:, 1] - self.bounds[:, 0]
        self.k = k
        self.min_points = min_points if min_points is not None else len(self.bounds) + 1
        self._x: np.ndarray | None = None
        self._obj: np.ndarray | None = None
        self._slack: np.ndarray | None = None

    @property
    def trained(self) -> bool:
        return self._x is not None and len(self._x) >= self.min_points

    def train(self, x: np.ndarray, objective: np.ndarray, slack: np.ndarray) -> None:
        self._x = np.asarray(x, dtype=float)
        self._obj = np.asarray(objective, dtype=float)
        self._slack = np.asarray(slack, dtype=float)

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weighted k-nearest predictions, PREDICT_BLOCK query rows at a time."""
        if not self.trained:
            raise ConfigError("surrogate queried before training")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        xn = (x - self.bounds[:, 0]) / self.span
        an = (self._x - self.bounds[:, 0]) / self.span
        k = min(self.k, len(an))
        nearest = np.empty((len(x), k), dtype=np.intp)
        dist = np.empty((len(x), k))
        for start in range(0, len(x), PREDICT_BLOCK):
            rows = slice(start, start + PREDICT_BLOCK)
            # The Euclidean norm as np.linalg.norm computes it, one query row
            # at a time so no temporary grows with the block.
            block = np.array([np.sqrt(np.square(an - q).sum(axis=1)) for q in xn[rows]])
            nearest[rows] = _k_nearest(block, k)
            dist[rows] = np.take_along_axis(block, nearest[rows], axis=1)
        w = 1.0 / (dist + 1e-12)
        w = w / w.sum(axis=1, keepdims=True)
        obj = (w[:, None, :] @ self._obj[nearest][:, :, None])[:, 0, 0]
        slack = (w[:, None, :] @ self._slack[nearest])[:, 0, :]
        return obj, slack


def _k_nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k smallest entries, ordered by (distance,
    index): the first k of a stable argsort."""
    part = np.argpartition(dist, k - 1, axis=1)[:, :k]
    near = np.take_along_axis(dist, part, axis=1)
    idx = np.take_along_axis(part, np.lexsort((part, near), axis=1), axis=1)
    # Entries tied with the k-th distance may have been left outside the
    # partition in place of a lower index; such rows take the full sort.
    tied = np.count_nonzero(dist <= near.max(axis=1, keepdims=True), axis=1) > k
    for r in np.flatnonzero(tied):
        idx[r] = np.argsort(dist[r], kind="stable")[:k]
    return idx


@dataclass(frozen=True)
class GlobalParams:
    """DE hyperparameters; defaults are standard robust settings."""

    pop_size: int | None = None          # default 10*d
    f_weight: float = 0.5
    cr: float = 0.9
    k_infill: int | None = None          # default max(2, pop_size // 5)
    theta_conv: float = 0.02
    n_conv_target: int | None = None     # default ceil(0.7*d)
    max_evals: int = 5000
    seed: int = 0

    def resolved(self, dim: int) -> "GlobalParams":
        pop = self.pop_size if self.pop_size is not None else 10 * dim
        infill = self.k_infill if self.k_infill is not None else max(2, pop // 5)
        if infill < 1:  # no infill would never spend the budget
            raise ConfigError(f"k_infill must be >= 1, got {infill}")
        target = (
            self.n_conv_target
            if self.n_conv_target is not None
            else int(np.ceil(0.7 * dim))
        )
        return replace(self, pop_size=pop, k_infill=infill, n_conv_target=target)


@dataclass
class OptimizerState:
    """Result and final state of the global phase."""

    population: list[EvalRecord]
    archive: list[EvalRecord]
    best: EvalRecord | None
    best_x: np.ndarray
    mask: np.ndarray          # True where a variable has converged
    generation: int
    evals: int
    warning: str | None = None
    history: list[dict] = field(default_factory=list)


def init_population(bounds: np.ndarray, pop_size: int, seed: int) -> np.ndarray:
    """Latin-hypercube sample: one point per stratum along every axis."""
    if pop_size < 5:
        raise ConfigError(f"population size must be >= 5, got {pop_size}")
    bounds = np.asarray(bounds, dtype=float)
    rng = np.random.default_rng(seed)
    d = bounds.shape[0]
    u = (rng.random((pop_size, d)) + np.arange(pop_size)[:, None]) / pop_size
    for j in range(d):
        u[:, j] = u[rng.permutation(pop_size), j]
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


def de_offspring(
    population: np.ndarray,
    f_weight: float,
    cr: float,
    rng: np.random.Generator,
    bounds: np.ndarray,
) -> np.ndarray:
    """DE/rand/1/bin offspring, one per parent, clipped to bounds."""
    pop = np.asarray(population, dtype=float)
    p, d = pop.shape
    if p < 4:
        raise ConfigError(f"differential evolution needs >= 4 members, got {p}")
    out = np.empty_like(pop)
    for i in range(p):
        choices = np.delete(np.arange(p), i)
        a, b, c = rng.choice(choices, size=3, replace=False)
        v = pop[a] + f_weight * (pop[b] - pop[c])
        j_rand = rng.integers(d)
        cross = rng.random(d) < cr
        cross[j_rand] = True
        out[i] = np.where(cross, v, pop[i])
    return np.clip(out, bounds[:, 0], bounds[:, 1])


def surrogate_rank(
    surrogate: IdwSurrogate | None,
    candidates: np.ndarray,
    k_infill: int,
) -> np.ndarray:
    """Indices of candidates to truly evaluate, best predicted first.

    Untrained (or absent) surrogate passes every candidate through in
    order.  Otherwise candidates sort by predicted total violation, then
    predicted objective.
    """
    n = len(candidates)
    if surrogate is None or not surrogate.trained:
        return np.arange(n)
    obj, slack = surrogate.predict(candidates)
    violation = np.sum(np.maximum(0.0, -slack), axis=1)
    order = np.lexsort((obj, violation))
    return order[:k_infill]


def feasibility_better(a: EvalRecord, b: EvalRecord) -> bool:
    """Deb's rules: is a strictly better than b?"""
    if a.feasible and not b.feasible:
        return True
    if not a.feasible and b.feasible:
        return False
    if a.feasible:
        return a.objective < b.objective
    return a.violation < b.violation


def detect_convergence(
    population: np.ndarray,
    bounds: np.ndarray,
    theta_conv: float,
) -> np.ndarray:
    """Per-variable flag: population spread below theta_conv of the range."""
    pop = np.asarray(population, dtype=float)
    span = bounds[:, 1] - bounds[:, 0]
    return pop.std(axis=0) / span < theta_conv


def run_global(problem: Problem, params: GlobalParams) -> OptimizerState:
    """Full global phase; deterministic in the seed.  The initial population
    and each generation's infill set are one ``problem.run_batch`` call each."""
    params = params.resolved(problem.dim)
    rng = np.random.default_rng(params.seed)
    bounds = problem.bounds

    pop_x = init_population(bounds, params.pop_size, params.seed)
    budget = params.max_evals
    state = OptimizerState(
        population=[],
        archive=[],
        best=None,
        best_x=pop_x[0].copy(),
        mask=detect_convergence(pop_x, bounds, params.theta_conv),
        generation=0,
        evals=0,
    )
    if budget <= 0:
        state.warning = "evaluation budget exhausted before any evaluation"
        return state

    arrays: list[np.ndarray] = []  # archive x, objective, slack, grown batch by batch

    def evaluate(xs: np.ndarray) -> list[EvalRecord]:
        nonlocal arrays
        x = np.array(xs, dtype=float)  # a copy: xs may view the population
        batch = (x, *problem.run_batch(x))
        arrays = [np.concatenate(pair) for pair in zip(arrays, batch)] if arrays else list(batch)
        records = [EvalRecord(*row) for row in zip(x, batch[1].tolist(), batch[2])]
        state.archive.extend(records)
        state.evals = len(state.archive)
        return records

    n_init = min(params.pop_size, budget)
    pop_x = pop_x[:n_init]
    state.population = evaluate(pop_x)
    for rec in state.population:
        if state.best is None or feasibility_better(rec, state.best):
            state.best = rec
    state.best_x = state.best.x.copy()

    surrogate = IdwSurrogate(bounds)

    def log_generation() -> None:
        state.history.append(
            {
                "generation": state.generation,
                "evals": state.evals,
                "best_objective": state.best.objective,
                "best_violation": state.best.violation,
                "n_converged": int(state.mask.sum()),
            }
        )

    state.mask = detect_convergence(pop_x, bounds, params.theta_conv)
    log_generation()

    while state.evals < params.max_evals and not (
        state.best.feasible and int(state.mask.sum()) >= params.n_conv_target
    ):
        surrogate.train(*arrays)
        offspring = de_offspring(pop_x, params.f_weight, params.cr, rng, bounds)
        chosen = surrogate_rank(surrogate, offspring, params.k_infill)
        chosen = chosen[: params.max_evals - state.evals]

        for idx, rec in zip(chosen, evaluate(offspring[chosen])):
            if feasibility_better(rec, state.population[idx]):
                state.population[idx] = rec
                pop_x[idx] = rec.x
            if feasibility_better(rec, state.best):
                state.best = rec
                state.best_x = rec.x.copy()

        state.generation += 1
        state.mask = detect_convergence(pop_x, bounds, params.theta_conv)
        log_generation()

    if state.best is not None and not state.best.feasible:
        state.warning = "no feasible point found; returning least-violating"
    return state


def write_history_csv(history: list[dict], path_or_buf) -> None:
    """Per-generation trace supporting convergence plots."""
    columns = ["generation", "evals", "best_objective", "best_violation", "n_converged"]
    write_csv(path_or_buf, columns, ([row[c] for c in columns] for row in history))
