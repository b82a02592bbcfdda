"""Surrogate-assisted constrained differential evolution.

Generational DE/rand/1/bin over cheap evaluations.  An inverse-distance
surrogate ranks each generation's offspring; only the most promising few
(infill) are evaluated, as one batch written into archive arrays sized to
the budget.  Population and best point are archive rows, and survivor
selection is one array comparison with the parents under Deb's rules.
The phase ends, and ``OptimizerState.stop_reason`` says why, at the first
of these checks to hold before a generation:

* ``converged``: a feasible best exists and enough variables have
  collapsed to a small fraction of their range, handing the rest to the
  local optimizer;
* ``stalled``: the best point is feasible, was already feasible
  ``STALL_GENERATIONS`` generations ago, and its objective has improved
  by at most ``STALL_RTOL`` (relative) since (an improvement-based stop
  as in Zielinski & Laur 2008); it never fires while the best point is
  infeasible;
* ``budget``: ``max_evals`` evaluations have been spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigError, require

PREDICT_ENTRIES = 8192  # (query, archive) distances per pass of IdwSurrogate.predict
IDW_NEIGHBOURS = 5  # archive points each IdwSurrogate prediction weighs
STALL_GENERATIONS = 20  # generations the stall test looks back
STALL_RTOL = 1e-6  # relative improvement over STALL_GENERATIONS that counts as none
# The keys of a history row, in order: global_history.csv's columns.
HISTORY_FIELDS = ("generation", "evals", "best_objective", "best_violation", "n_converged")


@dataclass(frozen=True)
class EvalRecord:
    """One archive row of ``OptimizerState``, as ``archive`` reads it."""

    x: np.ndarray
    objective: float
    slack: np.ndarray
    violation: float  # total constraint violation, sum(max(0, -slack))


@dataclass
class Problem:
    """Bounded minimization with signed constraint margins.

    ``evaluate_batch`` maps an (n, d) array to objectives (n,) and slacks
    (n, m), so a whole generation's infill is one call.
    """

    bounds: np.ndarray  # shape (d, 2)
    evaluate_batch: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self) -> None:
        self.bounds = np.asarray(self.bounds, dtype=float)
        if self.bounds.ndim != 2 or self.bounds.shape[1] != 2:
            raise ConfigError("bounds must have shape (d, 2)")
        if not (np.isfinite(self.bounds).all() and np.all(self.bounds[:, 0] < self.bounds[:, 1])):
            raise ConfigError("each bound must be finite with lo < hi")

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]


class IdwSurrogate:
    """Inverse-distance-weighted k-nearest regression in normalized space:
    each prediction weighs the IDW_NEIGHBOURS nearest archive points, and
    the surrogate counts as trained above d archive points."""

    def __init__(self, bounds: np.ndarray):
        self.bounds = np.asarray(bounds, dtype=float)
        self.span = self.bounds[:, 1] - self.bounds[:, 0]
        self._an: np.ndarray | None = None  # normalized archive, one row per variable
        self._obj: np.ndarray | None = None
        self._slack: np.ndarray | None = None

    @property
    def trained(self) -> bool:
        return self._an is not None and self._an.shape[1] > len(self.bounds)

    def train(self, x: np.ndarray, objective: np.ndarray, slack: np.ndarray) -> None:
        an = (np.asarray(x, dtype=float) - self.bounds[:, 0]) / self.span
        self._an = np.ascontiguousarray(an.T)
        self._obj = np.asarray(objective, dtype=float)
        self._slack = np.asarray(slack, dtype=float)

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weighted k-nearest predictions.  Squared distances are added in
        variable order, PREDICT_ENTRIES (query, archive) pairs per pass so
        that a pass's buffers stay in cache."""
        if not self.trained:
            raise ConfigError("surrogate queried before training")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        qn = ((x - self.bounds[:, 0]) / self.span).T
        an = self._an
        n = an.shape[1]
        rows = max(1, PREDICT_ENTRIES // n)
        all_dist = np.empty((len(x), n))
        term = np.empty((min(rows, len(x)), n))
        for start in range(0, len(x), rows):
            out = all_dist[start:start + rows]
            q = qn[:, start:start + rows, None]
            np.subtract(an[0], q[0], out=out)
            np.square(out, out=out)
            buf = term[:len(out)]
            for j in range(1, len(an)):
                np.subtract(an[j], q[j], out=buf)
                np.square(buf, out=buf)
                out += buf
        np.sqrt(all_dist, out=all_dist)
        nearest = _k_nearest(all_dist, min(IDW_NEIGHBOURS, n))
        dist = np.take_along_axis(all_dist, nearest, axis=1)
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

    def __post_init__(self) -> None:
        # F and CR as in Storn & Price (1997); zero infill never spends the budget.
        require(self.pop_size is None or self.pop_size >= 5, "pop_size", ">= 5", self.pop_size)
        require(self.k_infill is None or self.k_infill >= 1, "k_infill", ">= 1", self.k_infill)
        require(1 <= self.max_evals <= 10**7, "max_evals",  # run_global allocates it up front
                "in [1, 1e7]", self.max_evals)
        require(0.0 < self.f_weight <= 2.0, "f_weight", "in (0, 2]", self.f_weight)
        require(0.0 <= self.cr <= 1.0, "cr", "in [0, 1]", self.cr)
        require(self.theta_conv > 0.0, "theta_conv", "positive", self.theta_conv)

    def resolved(self, dim: int) -> "GlobalParams":
        pop = self.pop_size if self.pop_size is not None else 10 * dim
        infill = self.k_infill if self.k_infill is not None else max(2, pop // 5)
        target = (
            self.n_conv_target
            if self.n_conv_target is not None
            else int(np.ceil(0.7 * dim))
        )
        return replace(self, pop_size=pop, k_infill=infill, n_conv_target=target)


@dataclass
class OptimizerState:
    """Result and final state of the global phase.  The archive is four arrays, row i the
    i-th evaluated candidate; ``archive`` reads them as EvalRecords on first use."""

    x: np.ndarray             # (evals, d)
    objective: np.ndarray     # (evals,)
    slack: np.ndarray         # (evals, m)
    violation: np.ndarray     # (evals,) total violation, sum(max(0, -slack))
    best: int                 # the best archive row under Deb's rules (``pick_best``)
    mask: np.ndarray          # True where a variable has converged
    generation: int
    evals: int
    stop_reason: str = "budget"  # "converged", "stalled" or "budget"
    warning: str | None = None
    history: list[dict] = field(default_factory=list)

    @cached_property
    def archive(self) -> list[EvalRecord]:
        return [EvalRecord(*row) for row in zip(self.x, self.objective.tolist(), self.slack,
                                                self.violation.tolist())]


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
    """DE/rand/1/bin offspring, one per parent, clipped to bounds.  Each parent
    draws donors, j_rand and d uniforms in turn, from one pass over raw
    generator words where ``_raw_draws`` can decode them, else from ``rng``
    parent by parent; the arithmetic is whole-array."""
    pop = np.asarray(population, dtype=float)
    p, d = pop.shape
    if p < 4:
        raise ConfigError(f"differential evolution needs >= 4 members, got {p}")
    donors, j_rand, uniforms = _raw_draws(rng, p, d) or _parent_draws(rng, p, d)
    cross = uniforms < cr
    cross[np.arange(p), j_rand] = True
    a, b, c = donors.T
    out = np.where(cross, pop[a] + f_weight * (pop[b] - pop[c]), pop)
    return np.clip(out, bounds[:, 0], bounds[:, 1])


def _parent_draws(rng, p: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Donors (p, 3), j_rand (p,) and uniforms (p, d), drawn one parent at a time."""
    others = np.arange(1, p) - np.tri(p, p - 1, -1, dtype=np.intp)  # row i: all but i
    donors = np.empty((p, 3), dtype=np.intp)
    j_rand = np.empty(p, dtype=np.intp)
    uniforms = np.empty((p, d))
    for i in range(p):
        donors[i] = rng.choice(others[i], size=3, replace=False)
        j_rand[i] = rng.integers(d)
        uniforms[i] = rng.random(d)
    return donors, j_rand, uniforms


def _raw_draws(rng, p: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``_parent_draws``' values and end state from one ``random_raw`` call,
    decoded as numpy 2's Generator draws on PCG64.  Per parent, in order:
    choice's Floyd picks over ranges p-4, p-3, p-2 (a pick already taken
    becomes the range) and shuffle swaps over 2 and 1, then j_rand over d-1;
    a zero range draws nothing.  Each is ``u * (r + 1) >> 32`` (Lemire 2019)
    of a 32-bit u, the low half of a fresh word whose high half is held for
    the next one.  Then d uniforms ``(w >> 11) * 2**-53`` take whole words.
    None, with the generator as it was, when rng is not PCG64 or numpy
    would have redrawn a bounded value."""
    bitgen = getattr(rng, "bit_generator", None)
    if not isinstance(bitgen, np.random.PCG64):
        return None
    entry = bitgen.state
    held = entry["has_uint32"]
    live = np.array([p - 4, p - 3, p - 2, 2, 1, d - 1]) > 0
    span = np.array([p - 3, p - 2, p - 1, 3, 2, d], dtype=np.uint64)[live]  # range + 1
    k = len(span)  # 32-bit draws per parent
    # Parent i's uniforms follow the words that finish its 32-bit draws.
    starts = (k * np.arange(1, p + 1) - held + 1) // 2 + d * np.arange(p)
    words = bitgen.random_raw(starts[-1] + d)
    is_uniform = np.zeros(len(words), dtype=bool)
    is_uniform[(starts[:, None] + np.arange(d)).ravel()] = True
    split = words[~is_uniform]
    halves = np.stack((split & 0xFFFFFFFF, split >> 32), axis=1).ravel()
    halves = np.concatenate((np.full(held, entry["uinteger"], np.uint64), halves))
    scaled = halves[: k * p].reshape(p, k) * span
    if np.any((scaled & 0xFFFFFFFF) < 2**32 % span):
        bitgen.state = entry
        return None
    picks = np.zeros((p, 6), dtype=np.intp)
    picks[:, live] = scaled >> 32
    idx, (s2, s1, j_rand) = picks[:, :3], picks[:, 3:].T
    idx[idx[:, 1] == idx[:, 0], 1] = p - 3
    idx[(idx[:, 2] == idx[:, 0]) | (idx[:, 2] == idx[:, 1]), 2] = p - 2
    rows = np.arange(p)
    for slot, swap in ((2, s2), (1, s1)):
        idx[rows, slot], idx[rows, swap] = idx[rows, swap], idx[rows, slot]
    bitgen.state = {**bitgen.state, "has_uint32": (k * p - held) % 2,
                    "uinteger": int(split[-1]) >> 32}
    uniforms = (words[is_uniform] >> 11).reshape(p, d) * 2.0**-53
    return idx + (idx >= rows[:, None]), j_rand, uniforms  # index among the others -> parent


def surrogate_rank(
    surrogate: IdwSurrogate,
    candidates: np.ndarray,
    k_infill: int,
) -> np.ndarray:
    """Indices of candidates to truly evaluate, best predicted first.

    An untrained surrogate passes every candidate through in order.
    Otherwise candidates sort by predicted total violation, then predicted
    objective.
    """
    if not surrogate.trained:
        return np.arange(len(candidates))
    obj, slack = surrogate.predict(candidates)
    violation = np.sum(np.maximum(0.0, -slack), axis=1)
    order = np.lexsort((obj, violation))
    return order[:k_infill]


def feasibility_better(obj_a, viol_a, obj_b, viol_b) -> np.ndarray:
    """Deb's rules, elementwise over objectives and total violations: is a
    strictly better than b?  Feasible (zero violation) beats infeasible;
    two feasible points compare objectives, two infeasible ones violations."""
    feasible_a, feasible_b = viol_a == 0.0, viol_b == 0.0
    return np.where(feasible_a == feasible_b,
                    np.where(feasible_a, obj_a < obj_b, viol_a < viol_b), feasible_a)


def pick_best(objective: np.ndarray, violation: np.ndarray) -> int:
    """Where a scan from row 0 that moves only to ``feasibility_better`` rows
    ends: the first row of least (infeasible, objective or else violation)."""
    feasible = violation == 0.0
    return int(np.lexsort((np.where(feasible, objective, violation), ~feasible))[0])


def detect_convergence(
    population: np.ndarray,
    bounds: np.ndarray,
    theta_conv: float,
) -> np.ndarray:
    """Per-variable flag: population spread below theta_conv of the range."""
    pop = np.asarray(population, dtype=float)
    span = bounds[:, 1] - bounds[:, 0]
    return pop.std(axis=0) / span < theta_conv


def run_global(problem: Problem, params: GlobalParams, seed: int) -> OptimizerState:
    """Full global phase; deterministic in the seed.  The initial population
    and each generation's infill set are one ``problem.evaluate_batch`` call
    each, written into archive arrays sized to the budget; the population
    and the best point are archive rows."""
    params = params.resolved(problem.dim)
    rng = np.random.default_rng(seed)
    bounds, budget = problem.bounds, params.max_evals
    x, objective, violation = np.empty((budget, problem.dim)), np.empty(budget), np.empty(budget)
    slack = None  # (budget, m) once the first batch gives m
    evals = 0

    def evaluate(xs: np.ndarray) -> np.ndarray:
        nonlocal slack, evals
        rows = np.arange(evals, evals + len(xs))
        x[rows] = xs  # a copy: xs may view the population
        obj, s = problem.evaluate_batch(x[rows])
        s = np.asarray(s, dtype=float).reshape(len(rows), -1)
        if slack is None:
            slack = np.empty((budget, s.shape[1]))
        objective[rows], slack[rows] = np.reshape(obj, len(rows)), s
        violation[rows] = np.maximum(0.0, -s).sum(axis=1)
        evals += len(xs)
        return rows

    pop_x = init_population(bounds, params.pop_size, seed)[:budget]
    pop = evaluate(pop_x)  # archive row of each population member
    best = pick_best(objective[pop], violation[pop])
    mask = detect_convergence(pop_x, bounds, params.theta_conv)
    generation, history = 0, []
    surrogate = IdwSurrogate(bounds)

    def log_generation() -> None:
        history.append(dict(zip(HISTORY_FIELDS, (generation, evals, objective[best].item(),
                                                 violation[best].item(), int(mask.sum())))))

    def stop_reason() -> str | None:
        if violation[best] == 0.0 and int(mask.sum()) >= params.n_conv_target:
            return "converged"
        if len(history) > STALL_GENERATIONS:
            then = history[-1 - STALL_GENERATIONS]  # feasible then: feasible now (Deb's rules)
            gain = then["best_objective"] - objective[best]
            if then["best_violation"] == 0.0 and gain <= STALL_RTOL * abs(then["best_objective"]):
                return "stalled"
        return "budget" if evals >= budget else None

    log_generation()

    while (reason := stop_reason()) is None:
        surrogate.train(x[:evals], objective[:evals], slack[:evals])
        offspring = de_offspring(pop_x, params.f_weight, params.cr, rng, bounds)
        chosen = surrogate_rank(surrogate, offspring, params.k_infill)[: budget - evals]
        new = evaluate(offspring[chosen])
        # One-to-one survivor selection; chosen rows are distinct parents.
        won = feasibility_better(objective[new], violation[new],
                                 objective[pop[chosen]], violation[pop[chosen]])
        pop[chosen[won]] = new[won]
        pop_x[chosen[won]] = x[new[won]]
        both = np.append(best, new)  # the incumbent first: it keeps a tie
        best = both[pick_best(objective[both], violation[both])]

        generation += 1
        mask = detect_convergence(pop_x, bounds, params.theta_conv)
        log_generation()

    warning = "no feasible point found; returning least-violating" if violation[best] else None
    return OptimizerState(x[:evals], objective[:evals], slack[:evals], violation[:evals],
                          int(best), mask, generation, evals, reason, warning, history)
