"""Surrogate-assisted constrained differential evolution.

Generational DE/rand/1/bin over cheap evaluations.  An inverse-distance
surrogate ranks each generation's offspring and only the most promising
few are actually evaluated (infill); survivor selection is one-to-one
against the parent under feasibility dominance.  A generation's infill
is chosen before any of it is evaluated, so it is evaluated as one batch.
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
STALL_GENERATIONS = 20  # generations the stall test looks back
STALL_RTOL = 1e-6  # relative improvement over STALL_GENERATIONS that counts as none


@dataclass(frozen=True)
class EvalRecord:
    """One truly evaluated candidate; feasible and violation are computed once."""

    x: np.ndarray
    objective: float
    slack: np.ndarray

    @cached_property
    def feasible(self) -> bool:
        return bool(np.all(self.slack >= 0.0))

    @cached_property
    def violation(self) -> float:
        return float(np.sum(np.maximum(0.0, -self.slack)))


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
        if np.any(self.bounds[:, 0] >= self.bounds[:, 1]):
            raise ConfigError("each bound must satisfy lo < hi")

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
        self._steps = _sum_steps(0, len(self.bounds), 0)
        self._an: np.ndarray | None = None  # normalized archive, one row per variable
        self._obj: np.ndarray | None = None
        self._slack: np.ndarray | None = None

    @property
    def trained(self) -> bool:
        return self._an is not None and self._an.shape[1] >= self.min_points

    def train(self, x: np.ndarray, objective: np.ndarray, slack: np.ndarray) -> None:
        an = (np.asarray(x, dtype=float) - self.bounds[:, 0]) / self.span
        self._an = np.ascontiguousarray(an.T)
        self._obj = np.asarray(objective, dtype=float)
        self._slack = np.asarray(slack, dtype=float)

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weighted k-nearest predictions.  Squared distances are built one
        variable at a time, PREDICT_ENTRIES (query, archive) pairs per pass,
        and summed in ``_sum_steps`` order, so each equals np.linalg.norm's."""
        if not self.trained:
            raise ConfigError("surrogate queried before training")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        qn = ((x - self.bounds[:, 0]) / self.span).T
        an = self._an
        n = an.shape[1]
        k = min(self.k, n)
        rows = max(1, PREDICT_ENTRIES // n)
        all_dist = np.empty((len(x), n))
        spare = np.empty((max(slot for _, slot in self._steps), min(rows, len(x)), n))
        for start in range(0, len(x), rows):
            out = all_dist[start:start + rows]
            q = qn[:, start:start + rows, None]
            bufs = [out, *spare[:, :len(out)]]
            for j, slot in self._steps:
                buf = bufs[slot]
                if j is None:
                    np.add(buf, bufs[slot + 1], out=buf)
                else:
                    np.subtract(an[j], q[j], out=buf)
                    np.square(buf, out=buf)
        np.sqrt(all_dist, out=all_dist)
        nearest = _k_nearest(all_dist, k)
        dist = np.take_along_axis(all_dist, nearest, axis=1)
        w = 1.0 / (dist + 1e-12)
        w = w / w.sum(axis=1, keepdims=True)
        obj = (w[:, None, :] @ self._obj[nearest][:, :, None])[:, 0, 0]
        slack = (w[:, None, :] @ self._slack[nearest])[:, 0, :]
        return obj, slack


def _sum_steps(lo: int, n: int, slot: int) -> list[tuple[int | None, int]]:
    """Steps that sum terms lo..lo+n-1 into buffer ``slot`` in the order
    numpy's pairwise ``add.reduce`` sums a contiguous axis of length n:
    in turn below 8 terms; up to 128, as 8 running sums r0..r7 combined
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder in turn; above
    128, two halves, the first a multiple of 8 terms long.  ``(j, s)`` puts
    term j in buffer s and ``(None, s)`` adds buffer s+1 into buffer s, so
    a right operand is built one buffer up."""

    def plus(steps: list, terms: range, s: int) -> list:  # steps' sum, then each term
        return steps + [step for j in terms for step in ((j, s + 1), (None, s))]

    if n > 128:
        half = n // 2 - n // 2 % 8
        return [*_sum_steps(lo, half, slot), *_sum_steps(lo + half, n - half, slot + 1),
                (None, slot)]
    if n < 8:
        return plus([(lo, slot)], range(lo + 1, lo + n), slot)
    end = lo + n - n % 8

    def tree(first: int, width: int, s: int) -> list:  # r_first + ... + r_(first+width-1)
        if width == 1:
            return plus([(first, s)], range(first + 8, end, 8), s)
        half = width // 2
        return [*tree(first, half, s), *tree(first + half, half, s + 1), (None, s)]

    return plus(tree(lo, 8, slot), range(end, lo + n), slot)


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
        require(self.max_evals >= 1, "max_evals", ">= 1", self.max_evals)
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
    """Result and final state of the global phase."""

    archive: list[EvalRecord]
    best: EvalRecord | None
    mask: np.ndarray          # True where a variable has converged
    generation: int
    evals: int
    stop_reason: str = "budget"  # "converged", "stalled" or "budget"
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


def run_global(problem: Problem, params: GlobalParams, seed: int) -> OptimizerState:
    """Full global phase; deterministic in the seed.  The initial population
    and each generation's infill set are one ``problem.run_batch`` call each."""
    params = params.resolved(problem.dim)
    rng = np.random.default_rng(seed)
    bounds = problem.bounds

    pop_x = init_population(bounds, params.pop_size, seed)[: params.max_evals]
    state = OptimizerState(
        archive=[],
        best=None,
        mask=detect_convergence(pop_x, bounds, params.theta_conv),
        generation=0,
        evals=0,
    )

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

    population = evaluate(pop_x)
    for rec in population:
        if state.best is None or feasibility_better(rec, state.best):
            state.best = rec

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

    def stalled() -> bool:
        if len(state.history) <= STALL_GENERATIONS:
            return False
        then = state.history[-1 - STALL_GENERATIONS]  # feasible then: feasible now (Deb's rules)
        return then["best_violation"] == 0.0 and (
            then["best_objective"] - state.best.objective
            <= STALL_RTOL * abs(then["best_objective"])
        )

    def stop_reason() -> str | None:
        if state.best.feasible and int(state.mask.sum()) >= params.n_conv_target:
            return "converged"
        if stalled():
            return "stalled"
        return "budget" if state.evals >= params.max_evals else None

    log_generation()

    while (reason := stop_reason()) is None:
        surrogate.train(*arrays)
        offspring = de_offspring(pop_x, params.f_weight, params.cr, rng, bounds)
        chosen = surrogate_rank(surrogate, offspring, params.k_infill)
        chosen = chosen[: params.max_evals - state.evals]

        for idx, rec in zip(chosen, evaluate(offspring[chosen])):
            if feasibility_better(rec, population[idx]):
                population[idx] = rec
                pop_x[idx] = rec.x
            if feasibility_better(rec, state.best):
                state.best = rec

        state.generation += 1
        state.mask = detect_convergence(pop_x, bounds, params.theta_conv)
        log_generation()

    state.stop_reason = reason
    if not state.best.feasible:
        state.warning = "no feasible point found; returning least-violating"
    return state
