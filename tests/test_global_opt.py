import numpy as np
import pytest
from hypothesis import given, strategies as st

from sarsizer.errors import ConfigError
from sarsizer.global_opt import (
    EvalRecord,
    GlobalParams,
    IdwSurrogate,
    Problem,
    de_offspring,
    detect_convergence,
    feasibility_better,
    init_population,
    run_global,
    surrogate_rank,
)

UNIT3 = np.array([[0.0, 1.0]] * 3)


def record(x, obj, slack):
    return EvalRecord(x=np.atleast_1d(np.asarray(x, float)), objective=obj,
                      slack=np.atleast_1d(np.asarray(slack, float)))


def sphere_batch(xs):
    """Sphere objective with the constraint x0 >= 0.5, one row per candidate."""
    return np.sum(xs**2, axis=1), xs[:, :1] - 0.5


def sphere_problem():
    return Problem(bounds=UNIT3.copy(), evaluate_batch=sphere_batch)


class TestInitPopulation:
    def test_one_point_per_stratum_1d(self):
        pop = init_population(np.array([[0.0, 1.0]]), 5, seed=0)
        strata = np.floor(pop[:, 0] * 5).astype(int)
        assert sorted(strata.tolist()) == [0, 1, 2, 3, 4]

    def test_deterministic_in_seed(self):
        a = init_population(UNIT3, 11, seed=42)
        b = init_population(UNIT3, 11, seed=42)
        np.testing.assert_array_equal(a, b)
        c = init_population(UNIT3, 11, seed=43)
        assert not np.array_equal(a, c)

    def test_sar_sized_population_in_bounds(self):
        bounds = np.array(
            [[1e-15, 5e-14], [10, 2e4], [1e-9, 4e-7], [5e-6, 5e-3],
             [1e-12, 1e-8], [5e-13, 5e-9], [50, 2e4], [1e-12, 1e-8]]
        )
        pop = init_population(bounds, 40, seed=7)
        assert pop.shape == (40, 8)
        assert np.all(pop >= bounds[:, 0]) and np.all(pop <= bounds[:, 1])

    def test_minimum_size_enforced(self):
        with pytest.raises(ConfigError):
            init_population(UNIT3, 4, seed=0)


class FakeRng:
    """Scripted stand-in for a numpy Generator in hand-trace tests."""

    def __init__(self, abc, j_rand=0, uniforms=0.0):
        self.abc = np.asarray(abc)
        self.j_rand = j_rand
        self.uniforms = uniforms

    def choice(self, options, size, replace):
        assert size == 3 and not replace
        return self.abc

    def integers(self, high):
        return self.j_rand

    def random(self, size=None):
        return np.full(size, self.uniforms)


class TestDeOffspring:
    def test_hand_traced_mutation(self):
        pop = np.array([[0.1], [0.2], [0.3], [0.4]])
        rng = FakeRng(abc=[1, 2, 3], uniforms=0.0)  # every gene crosses
        out = de_offspring(pop, f_weight=0.5, cr=0.9, rng=rng, bounds=np.array([[0.0, 1.0]]))
        expected = 0.2 + 0.5 * (0.3 - 0.4)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_zero_weight_full_cross_copies_base(self):
        pop = np.array([[0.1, 0.9], [0.2, 0.8], [0.3, 0.7], [0.4, 0.6]])
        rng = FakeRng(abc=[1, 2, 3], uniforms=0.0)
        out = de_offspring(pop, f_weight=0.0, cr=1.0, rng=rng,
                           bounds=np.array([[0.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(out, np.tile(pop[1], (4, 1)))

    def test_equal_donors_collapse_to_base(self):
        pop = np.array([[0.5], [0.3], [0.2], [0.2]])
        rng = FakeRng(abc=[1, 2, 3], uniforms=0.0)
        out = de_offspring(pop, f_weight=0.7, cr=1.0, rng=rng, bounds=np.array([[0.0, 1.0]]))
        np.testing.assert_array_equal(out, np.full((4, 1), 0.3))

    def test_offspring_respect_bounds(self):
        rng = np.random.default_rng(3)
        pop = init_population(UNIT3, 12, seed=3)
        out = de_offspring(pop, 0.9, 0.9, rng, UNIT3)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_small_population_rejected(self):
        with pytest.raises(ConfigError):
            de_offspring(np.zeros((3, 2)), 0.5, 0.9, np.random.default_rng(0),
                         np.array([[0.0, 1.0]] * 2))


class TestFeasibilityBetter:
    def test_feasible_beats_infeasible(self):
        a = record(0.0, 100.0, [0.1])
        b = record(0.0, 1.0, [-0.1])
        assert feasibility_better(a, b)
        assert not feasibility_better(b, a)

    def test_feasible_compare_objective(self):
        a = record(0.0, 3.0, [0.5])
        b = record(0.0, 5.0, [0.5])
        assert feasibility_better(a, b)
        assert not feasibility_better(b, a)

    def test_infeasible_compare_total_violation(self):
        a = record(0.0, 1.0, [-0.2])
        b = record(0.0, 9.0, [-0.1])
        assert not feasibility_better(a, b)
        assert feasibility_better(b, a)

    @given(
        oa=st.floats(-10, 10), ob=st.floats(-10, 10),
        sa=st.floats(-1, 1), sb=st.floats(-1, 1),
    )
    def test_strictness_antisymmetry(self, oa, ob, sa, sb):
        a = record(0.0, oa, [sa])
        b = record(0.0, ob, [sb])
        assert not (feasibility_better(a, b) and feasibility_better(b, a))


class TestDetectConvergence:
    def test_identical_points_converged(self):
        pop = np.tile([0.3, 0.7], (8, 1))
        mask = detect_convergence(pop, np.array([[0, 1], [0, 1]]), 0.02)
        assert mask.tolist() == [True, True]

    def test_uniform_spread_not_converged(self):
        rng = np.random.default_rng(0)
        pop = rng.random((4000, 1))
        bounds = np.array([[0.0, 1.0]])
        # uniform std is range/sqrt(12) ~ 0.289
        assert pop.std(axis=0)[0] == pytest.approx(1 / np.sqrt(12), abs=0.01)
        assert not detect_convergence(pop, bounds, 0.02)[0]

    def test_threshold_one_accepts_everything(self):
        rng = np.random.default_rng(1)
        pop = rng.random((50, 4))
        assert detect_convergence(pop, np.array([[0, 1]] * 4), 1.0).all()


class TestSurrogate:
    def archive(self):
        # two clusters: feasible low-power near the origin corner,
        # infeasible high-power near the far corner
        x = np.array([[0.1, 0.1], [0.15, 0.1], [0.9, 0.9], [0.85, 0.9]])
        obj = np.array([1.0, 1.1, 5.0, 5.2])
        slack = np.array([[0.2], [0.15], [-0.3], [-0.25]])
        return x, obj, slack

    def test_untrained_passes_through(self):
        sur = IdwSurrogate(np.array([[0, 1], [0, 1]]))
        cands = np.random.default_rng(0).random((7, 2))
        order = surrogate_rank(sur, cands, 3)
        np.testing.assert_array_equal(order, np.arange(7))
        np.testing.assert_array_equal(surrogate_rank(None, cands, 3), np.arange(7))

    def test_full_infill_is_identity_set(self):
        sur = IdwSurrogate(np.array([[0, 1], [0, 1]]), min_points=3)
        sur.train(*self.archive())
        cands = np.random.default_rng(1).random((6, 2))
        order = surrogate_rank(sur, cands, 6)
        assert sorted(order.tolist()) == list(range(6))

    def test_idw_prediction_matches_hand_computation(self):
        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        x, obj, slack = self.archive()
        sur = IdwSurrogate(bounds, k=4, min_points=3)
        sur.train(x, obj, slack)
        q = np.array([[0.2, 0.12]])
        dist = np.linalg.norm(x - q[0], axis=1)
        w = 1.0 / (dist + 1e-12)
        w = w / w.sum()
        pred_obj, pred_slack = sur.predict(q)
        assert pred_obj[0] == pytest.approx(float(w @ obj), rel=1e-12)
        assert pred_slack[0, 0] == pytest.approx(float(w @ slack[:, 0]), rel=1e-12)

    def test_kth_distance_tie_keeps_lower_index(self):
        # Queried at 0, fifteen archive points tie at distance 1/4.  k=5
        # takes the five lowest of their indices, as a stable sort does
        # (a plain partition of this row picks index 13 instead of 8).
        dist = [0.25, 0.25, 0.75, 0.75, 0.25, 0.5, 0.25, 0.5, 0.25, 0.25, 0.75, 0.25,
                0.5, 0.25, 0.75, 0.5, 0.25, 0.75, 0.25, 0.25, 0.25, 0.25, 0.5, 0.25,
                0.25, 0.25, 0.25]
        x = np.array(dist)[:, None]
        obj = np.arange(len(x), dtype=float) ** 2
        sur = IdwSurrogate(np.array([[0.0, 1.0]]), k=5, min_points=2)
        sur.train(x, obj, obj[:, None])
        pred_obj, pred_slack = sur.predict(np.array([[0.0]]))
        assert pred_obj[0] == pytest.approx(np.mean(obj[[0, 1, 4, 6, 8]]), rel=1e-15)
        assert pred_slack[0, 0] == pred_obj[0]

    def test_matches_per_row_reference_on_large_archive(self):
        rng = np.random.default_rng(11)
        bounds = np.array([[0.0, 2.0]] * 8)
        x = rng.random((2000, 8)) * 2.0
        x[1000:1010] = x[:10]  # exact duplicates tie at every distance
        obj = rng.random(2000)
        slack = rng.standard_normal((2000, 10))
        sur = IdwSurrogate(bounds)
        sur.train(x, obj, slack)
        queries = np.vstack([rng.random((37, 8)) * 2.0, x[:3]])
        pred_obj, pred_slack = sur.predict(queries)
        an, qn = x / 2.0, queries / 2.0
        for row, q in enumerate(qn):
            dist = np.linalg.norm(an - q, axis=1)
            nearest = np.argsort(dist, kind="stable")[:5]
            w = 1.0 / (dist[nearest] + 1e-12)
            w = w / w.sum()
            np.testing.assert_allclose(pred_obj[row], w @ obj[nearest], rtol=1e-12)
            np.testing.assert_allclose(pred_slack[row], w @ slack[nearest], rtol=1e-12)

    def test_candidate_near_feasible_cluster_ranks_first(self):
        sur = IdwSurrogate(np.array([[0, 1], [0, 1]]), min_points=3)
        sur.train(*self.archive())
        cands = np.array([[0.88, 0.88], [0.12, 0.12], [0.5, 0.5]])
        order = surrogate_rank(sur, cands, 1)
        assert order[0] == 1


class TestRunGlobal:
    def test_constrained_sphere_converges(self):
        state = run_global(sphere_problem(), GlobalParams(max_evals=2500, seed=1))
        assert state.best.violation == 0.0
        assert state.best.objective < 0.25 * 1.10
        assert abs(state.best.x[0] - 0.5) < 0.05

    def test_archive_deterministic_in_seed(self):
        p = GlobalParams(max_evals=600, seed=9)
        a = run_global(sphere_problem(), p)
        b = run_global(sphere_problem(), p)
        assert len(a.archive) == len(b.archive)
        for ra, rb in zip(a.archive, b.archive):
            np.testing.assert_array_equal(ra.x, rb.x)
            assert ra.objective == rb.objective

    def test_zero_convergence_target_stops_after_first_check(self):
        state = run_global(sphere_problem(), GlobalParams(max_evals=500, seed=2,
                                                          n_conv_target=0))
        assert state.generation == 0
        assert state.evals == 30  # just the initial population

    def test_zero_budget_returns_initial_point_with_warning(self):
        state = run_global(sphere_problem(), GlobalParams(max_evals=0, seed=4))
        assert state.warning is not None
        assert state.best is None
        assert state.best_x.shape == (3,)
        assert len(state.archive) == 0

    def test_all_evaluations_within_bounds(self):
        state = run_global(sphere_problem(), GlobalParams(max_evals=400, seed=5))
        for rec in state.archive:
            assert np.all(rec.x >= 0.0) and np.all(rec.x <= 1.0)

    def test_best_is_feasibility_monotone(self):
        state = run_global(sphere_problem(), GlobalParams(max_evals=800, seed=6))
        # replay the archive: best-so-far under the dominance rule must
        # match the reported history trajectory's monotonicity
        best = None
        for rec in state.archive:
            if best is None or feasibility_better(rec, best):
                best = rec
        assert best.objective == state.best.objective
        np.testing.assert_array_equal(best.x, state.best.x)
        viols = [h["best_violation"] for h in state.history]
        assert all(b <= a + 1e-15 for a, b in zip(viols, viols[1:]))

    def test_history_rows_complete(self):
        state = run_global(sphere_problem(), GlobalParams(max_evals=300, seed=8))
        assert state.history[0]["generation"] == 0
        assert state.history[-1]["evals"] == state.evals
        for row in state.history:
            assert set(row) == {
                "generation", "evals", "best_objective", "best_violation",
                "n_converged",
            }

    def test_budget_never_exceeded(self):
        state = run_global(sphere_problem(), GlobalParams(max_evals=137, seed=3))
        assert state.evals <= 137
        assert len(state.archive) == state.evals

    def test_one_batch_evaluation_per_generation(self):
        calls = []

        def evaluate_batch(xs):
            calls.append(len(xs))
            return sphere_batch(xs)

        problem = Problem(bounds=UNIT3.copy(), evaluate_batch=evaluate_batch)
        params = GlobalParams(max_evals=300, seed=8, k_infill=7, n_conv_target=4)
        state = run_global(problem, params)
        assert len(calls) == state.generation + 1
        assert calls[0] == 30 and set(calls[1:-1]) == {7}
        assert sum(calls) == state.evals == 300

    def test_no_convergence_handoff_while_infeasible(self):
        def evaluate_batch(xs):
            return np.sum(xs, axis=1), -1.0 - xs[:, :1]  # never feasible

        problem = Problem(bounds=UNIT3.copy(), evaluate_batch=evaluate_batch)
        state = run_global(problem, GlobalParams(max_evals=200, seed=1, theta_conv=1.0,
                                                 n_conv_target=1))
        assert state.mask.sum() >= 1
        assert state.evals == 200
        assert state.warning == "no feasible point found; returning least-violating"

    def test_zero_infill_rejected(self):
        with pytest.raises(ConfigError, match="k_infill"):
            run_global(sphere_problem(), GlobalParams(max_evals=100, k_infill=0))

    def test_problem_requires_some_evaluator(self):
        with pytest.raises(ConfigError):
            Problem(bounds=UNIT3.copy())
