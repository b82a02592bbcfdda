import numpy as np
import pytest
from hypothesis import given, strategies as st

from sarsizer import global_opt
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
    pick_best,
    run_global,
    surrogate_rank,
)

UNIT3 = np.array([[0.0, 1.0]] * 3)


def record(x, obj, slack):
    slack = np.atleast_1d(np.asarray(slack, float))
    return EvalRecord(x=np.atleast_1d(np.asarray(x, float)), objective=obj, slack=slack,
                      violation=float(np.sum(np.maximum(0.0, -slack))))


def better(a, b):
    """feasibility_better on two records."""
    return feasibility_better(a.objective, a.violation, b.objective, b.violation)


def scalar_better(a, b):
    """Deb's rules on two (objective, slack) pairs, written out on their own:
    the oracle for the array form."""
    (oa, sa), (ob, sb) = a, b
    fa, fb = all(s >= 0.0 for s in sa), all(s >= 0.0 for s in sb)
    if fa != fb:
        return fa
    if fa:
        return oa < ob
    return sum(max(0.0, -s) for s in sa) < sum(max(0.0, -s) for s in sb)


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


def held_half_rng(seed):
    """A PCG64 generator holding the high half of a word for its next 32-bit draw."""
    rng = np.random.default_rng(seed)
    rng.integers(5)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def dxsm_rng(seed):
    return np.random.Generator(np.random.PCG64DXSM(seed))


REDRAW_P = 180  # first Floyd pick over range 176, which redraws when u * 177 % 2**32 < 169


def redraw_rng(seed):
    """PCG64(2024) advanced to a word whose low half numpy's bounded draw
    rejects as REDRAW_P's first Floyd pick; the offset was found by scanning
    that stream's words.  ``seed`` is unused."""
    rng = np.random.Generator(np.random.PCG64(2024))
    rng.bit_generator.advance(13_507_833)
    return rng


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

    def test_raw_pass_declines_a_redraw_and_restores_the_state(self):
        rng = redraw_rng(0)
        entry = rng.bit_generator.state
        assert global_opt._raw_draws(rng, REDRAW_P, 3) is None
        assert rng.bit_generator.state == entry
        assert global_opt._raw_draws(np.random.default_rng(0), REDRAW_P, 3) is not None

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
    def test_other_bit_generators_match_the_loop(self, bit_generator):
        """Generators whose words PCG64's decode would misread (their states
        hold arrays, so the stream is compared by its next words)."""
        pop, bounds = np.random.default_rng(3).random((13, 5)), np.array([[0.0, 1.0]] * 5)
        rng, ref_rng = np.random.Generator(bit_generator(3)), np.random.Generator(bit_generator(3))
        out = de_offspring(pop, 0.9, 0.5, rng, bounds)
        expected = self.per_parent_loop(pop, 0.9, 0.5, ref_rng, bounds)
        assert out.tobytes() == expected.tobytes()
        assert rng.integers(2**32, size=4).tolist() == ref_rng.integers(2**32, size=4).tolist()

    @staticmethod
    def per_parent_loop(pop, f_weight, cr, rng, bounds):
        """DE/rand/1/bin written one parent at a time, mutation included."""
        p, d = pop.shape
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

    @pytest.mark.parametrize("p, d, seed, make_rng", [
        pytest.param(p, d, seed, make, id="-".join([str(p), str(d), str(seed), *kind]))
        for p, d, seed, make, *kind in [
            (4, 1, 0, np.random.default_rng), (4, 3, 1, np.random.default_rng),
            (5, 2, 2, np.random.default_rng), (13, 5, 3, np.random.default_rng),
            (40, 8, 4, np.random.default_rng), (40, 8, 21, np.random.default_rng),
            (80, 8, 5, np.random.default_rng), (13, 1, 6, np.random.default_rng),
            (200, 8, 7, np.random.default_rng), (40, 8, 8, held_half_rng, "held_half"),
            (13, 5, 9, dxsm_rng, "pcg64dxsm"), (REDRAW_P, 3, 10, redraw_rng, "redraw"),
        ]
    ])
    def test_matches_per_parent_loop_and_stream(self, p, d, seed, make_rng):
        """Bit-equal offspring, and the generator left in the loop's state,
        over two generations: every draw is taken in the loop's order."""
        bounds = np.array([[0.0, 1.0]] * d)  # F=0.9 mutants often leave it
        pop = np.random.default_rng(1000 + seed).random((p, d))
        rng, ref_rng = make_rng(seed), make_rng(seed)
        for _ in range(2):
            out = de_offspring(pop, 0.9, 0.5, rng, bounds)
            expected = self.per_parent_loop(pop, 0.9, 0.5, ref_rng, bounds)
            assert out.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            pop = out


class TestFeasibilityBetter:
    def test_feasible_beats_infeasible(self):
        a = record(0.0, 100.0, [0.1])
        b = record(0.0, 1.0, [-0.1])
        assert better(a, b)
        assert not better(b, a)

    def test_feasible_compare_objective(self):
        a = record(0.0, 3.0, [0.5])
        b = record(0.0, 5.0, [0.5])
        assert better(a, b)
        assert not better(b, a)

    def test_infeasible_compare_total_violation(self):
        a = record(0.0, 1.0, [-0.2])
        b = record(0.0, 9.0, [-0.1])
        assert not better(a, b)
        assert better(b, a)

    @given(
        oa=st.floats(-10, 10), ob=st.floats(-10, 10),
        sa=st.floats(-1, 1), sb=st.floats(-1, 1),
    )
    def test_strictness_antisymmetry(self, oa, ob, sa, sb):
        a = record(0.0, oa, [sa])
        b = record(0.0, ob, [sb])
        assert not (better(a, b) and better(b, a))

    # Few distinct values, so objectives and violations tie often; one
    # slack per point keeps each violation exact, as the oracle sums it.
    scores = st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.0, 3.0]),
                                st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0])),
                      min_size=1, max_size=12)

    @given(a=scores, b=scores)
    def test_array_form_matches_scalar_oracle(self, a, b):
        """Elementwise over two batches, with tied objectives, tied
        violations and mixed feasibility: the survivor selection's rule."""
        n = min(len(a), len(b))
        pa = [record(0.0, o, [s]) for o, s in a[:n]]
        pb = [record(0.0, o, [s]) for o, s in b[:n]]
        got = feasibility_better(np.array([r.objective for r in pa]),
                                 np.array([r.violation for r in pa]),
                                 np.array([r.objective for r in pb]),
                                 np.array([r.violation for r in pb]))
        want = [scalar_better((o, [s]), (p, [t])) for (o, s), (p, t) in zip(a[:n], b[:n])]
        assert got.tolist() == want

    @given(rows=scores)
    def test_pick_best_is_the_sequential_scan(self, rows):
        """The incumbent (row 0) moves only to a strictly better row, in
        order, so on a tie the earlier row keeps its place."""
        expected = 0
        for i, row in enumerate(rows):
            if scalar_better((row[0], [row[1]]), (rows[expected][0], [rows[expected][1]])):
                expected = i
        recs = [record(0.0, o, [s]) for o, s in rows]
        got = pick_best(np.array([r.objective for r in recs]),
                        np.array([r.violation for r in recs]))
        assert got == expected


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

    def test_trained_above_d_archive_points(self):
        x, obj, slack = self.archive()
        sur = IdwSurrogate(np.array([[0, 1], [0, 1]]))
        sur.train(x[:2], obj[:2], slack[:2])
        assert not sur.trained
        with pytest.raises(ConfigError, match="before training"):
            sur.predict(x[:1])
        sur.train(x[:3], obj[:3], slack[:3])
        assert sur.trained

    def test_full_infill_is_identity_set(self):
        sur = IdwSurrogate(np.array([[0, 1], [0, 1]]))
        sur.train(*self.archive())
        cands = np.random.default_rng(1).random((6, 2))
        order = surrogate_rank(sur, cands, 6)
        assert sorted(order.tolist()) == list(range(6))

    def test_idw_prediction_matches_hand_computation(self):
        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        x, obj, slack = self.archive()
        sur = IdwSurrogate(bounds)  # four points: k = min(5, 4) weighs all of them
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
        sur = IdwSurrogate(np.array([[0.0, 1.0]]))
        sur.train(x, obj, obj[:, None])
        pred_obj, pred_slack = sur.predict(np.array([[0.0]]))
        assert pred_obj[0] == pytest.approx(np.mean(obj[[0, 1, 4, 6, 8]]), rel=1e-15)
        assert pred_slack[0, 0] == pred_obj[0]

    @staticmethod
    def in_turn_norm(diff):
        """Euclidean norm of each row, its squares added in column order."""
        total = np.zeros(len(diff))
        for column in diff.T:
            total += column * column
        return np.sqrt(total)

    @staticmethod
    def naive_idw(bounds, x, obj, slack, queries, k, norm):
        """IDW one query at a time: ``norm`` distances and the first k of a
        stable argsort."""
        span = bounds[:, 1] - bounds[:, 0]
        an, qn = (x - bounds[:, 0]) / span, (queries - bounds[:, 0]) / span
        pred_obj, pred_slack = [], []
        for q in qn:
            dist = norm(an - q)
            nearest = np.argsort(dist, kind="stable")[:k]
            w = 1.0 / (dist[nearest] + 1e-12)
            w = w / w.sum()
            pred_obj.append((w[None, :] @ obj[nearest][:, None])[0, 0])
            pred_slack.append((w[None, :] @ slack[nearest])[0])
        return np.array(pred_obj), np.array(pred_slack)

    @staticmethod
    def assert_close(pred, ref, d, values):
        """Squares added in turn and np.linalg.norm's pairwise order differ
        by about d ulp in each distance; allow 4d ulp of the largest
        training value."""
        np.testing.assert_allclose(pred, ref, rtol=0, atol=4 * d * 2.0**-52 * np.max(np.abs(values)))

    def check_bit_equal_to_naive_idw(self, d, n_queries, n_archive, seed):
        """Byte for byte the naive IDW with squares added in variable order,
        and within assert_close of the np.linalg.norm one.  Exact ties:
        archive rows repeated and queries placed on archive rows."""
        rng = np.random.default_rng(seed)
        bounds = np.array([[-1.0, 3.0]] * d)
        x = rng.uniform(-1.0, 3.0, (n_archive, d))
        x[n_archive // 2:n_archive // 2 + 2] = x[0]  # three copies of row 0
        obj, slack = rng.random(n_archive), rng.standard_normal((n_archive, 10))
        queries = rng.uniform(-1.0, 3.0, (n_queries, d))
        queries[::3] = x[rng.integers(n_archive, size=len(queries[::3]))]
        sur = IdwSurrogate(bounds)
        sur.train(x, obj, slack)
        pred_obj, pred_slack = sur.predict(queries)
        ref_obj, ref_slack = self.naive_idw(bounds, x, obj, slack, queries, 5, self.in_turn_norm)
        assert pred_obj.tobytes() == ref_obj.tobytes()
        assert pred_slack.tobytes() == ref_slack.tobytes()
        ref_obj, ref_slack = self.naive_idw(bounds, x, obj, slack, queries, 5,
                                            lambda diff: np.linalg.norm(diff, axis=1))
        self.assert_close(pred_obj, ref_obj, d, obj)
        self.assert_close(pred_slack, ref_slack, d, slack)

    @pytest.mark.parametrize("n_queries", [1, 7, 9, 40])
    @pytest.mark.parametrize("n_archive", [9, 50, 700, 2000])
    def test_bit_equal_to_naive_idw(self, n_queries, n_archive):
        """Query counts from one to a generation's 40, at the desk's d = 8,
        from the smallest trained archive (d + 1 points) to one of 2,000."""
        self.check_bit_equal_to_naive_idw(8, n_queries, n_archive, n_queries * 1000 + n_archive)

    @pytest.mark.parametrize("d", [1, 3, 7, 8, 9, 16, 17, 129, 150])
    @pytest.mark.parametrize("n_archive", [
        global_opt.PREDICT_ENTRIES // 40,  # 40 queries fill one pass
        global_opt.PREDICT_ENTRIES // 40 + 1,  # 40 queries need a second pass
        global_opt.PREDICT_ENTRIES + 1,  # one query row per pass, over PREDICT_ENTRIES pairs
    ])
    def test_bit_equal_to_naive_idw_in_each_summation_regime(self, d, n_archive):
        """Each pass layout (one pass, a second pass, one query row per
        pass) at dimensions from 1 to 150; np.linalg.norm's pairwise sum
        changes branch at 8 and 128 terms, predict adds in turn at every d."""
        self.check_bit_equal_to_naive_idw(d, 40, n_archive, [d, n_archive])

    def test_lattice_ties_bit_equal_to_naive_idw(self):
        """Every query sits at equal distance from many lattice points."""
        grid = np.array(np.meshgrid(*[np.arange(4.0)] * 3)).reshape(3, -1).T
        queries = grid[:9] + 0.5
        obj = np.arange(len(grid), dtype=float)
        bounds = np.array([[0.0, 4.0]] * 3)
        sur = IdwSurrogate(bounds)
        sur.train(grid, obj, obj[:, None])
        pred_obj, pred_slack = sur.predict(queries)
        ref_obj, ref_slack = self.naive_idw(bounds, grid, obj, obj[:, None], queries, 5,
                                            self.in_turn_norm)
        assert pred_obj.tobytes() == ref_obj.tobytes()
        assert pred_slack.tobytes() == ref_slack.tobytes()

    def test_candidate_near_feasible_cluster_ranks_first(self):
        sur = IdwSurrogate(np.array([[0, 1], [0, 1]]))
        sur.train(*self.archive())
        cands = np.array([[0.88, 0.88], [0.12, 0.12], [0.5, 0.5]])
        order = surrogate_rank(sur, cands, 1)
        assert order[0] == 1


class TestRunGlobal:
    def test_constrained_sphere_converges(self):
        state = run_global(sphere_problem(), GlobalParams(max_evals=2500), 1)
        assert state.violation[state.best] == 0.0
        assert state.objective[state.best] < 0.25 * 1.10
        assert abs(state.x[state.best, 0] - 0.5) < 0.05

    @pytest.mark.parametrize("seed, max_evals", [(1, 400), (6, 800), (3, 137)])
    def test_best_is_the_archive_row_pick_best_finds(self, seed, max_evals):
        state = run_global(sphere_problem(), GlobalParams(max_evals=max_evals), seed)
        assert type(state.best) is int
        assert state.best == pick_best(state.objective, state.violation)

    def test_violation_array_is_each_row_summed_alone(self):
        """The archive's violation array equals, bit for bit, each row's
        violation summed on its own, as an EvalRecord holds it."""
        def evaluate_batch(xs):  # three slacks, often several negative
            return np.sum(xs**2, axis=1), np.stack([xs[:, 0] - 0.5, 0.3 - xs[:, 1],
                                                    xs[:, 2] - xs[:, 0]], axis=1)

        problem = Problem(bounds=UNIT3.copy(), evaluate_batch=evaluate_batch)
        state = run_global(problem, GlobalParams(max_evals=300), 4)
        assert state.violation.shape == (state.evals,)
        assert np.count_nonzero(state.violation) > 0
        for i, rec in enumerate(state.archive):
            own = float(np.sum(np.maximum(0.0, -state.slack[i])))
            assert rec.violation == state.violation[i] == own
            assert (rec.x.tobytes(), rec.objective) == (state.x[i].tobytes(), state.objective[i])

    def test_archive_deterministic_in_seed(self):
        p = GlobalParams(max_evals=600)
        a = run_global(sphere_problem(), p, 9)
        b = run_global(sphere_problem(), p, 9)
        assert len(a.archive) == len(b.archive)
        for ra, rb in zip(a.archive, b.archive):
            np.testing.assert_array_equal(ra.x, rb.x)
            assert ra.objective == rb.objective

    def test_zero_convergence_target_stops_after_first_check(self):
        state = run_global(sphere_problem(), GlobalParams(max_evals=500, n_conv_target=0), 2)
        assert state.generation == 0
        assert state.evals == 30  # just the initial population
        assert state.stop_reason == "converged"

    def test_zero_budget_rejected(self):
        with pytest.raises(ConfigError, match="max_evals"):
            GlobalParams(max_evals=0)

    def test_budget_beyond_the_preallocated_archive_rejected(self):
        """The archive is allocated for the whole budget before the first
        evaluation, so a budget meant as "unlimited" is refused up front."""
        GlobalParams(max_evals=10**7)
        with pytest.raises(ConfigError, match=r"max_evals must be in \[1, 1e7\], got 1000000000"):
            GlobalParams(max_evals=10**9)

    def test_all_evaluations_within_bounds(self):
        state = run_global(sphere_problem(), GlobalParams(max_evals=400), 5)
        for rec in state.archive:
            assert np.all(rec.x >= 0.0) and np.all(rec.x <= 1.0)

    def test_best_is_feasibility_monotone(self):
        state = run_global(sphere_problem(), GlobalParams(max_evals=800), 6)
        # replay the archive: best-so-far under the dominance rule must
        # match the reported history trajectory's monotonicity
        best = None
        for rec in state.archive:
            pair = (rec.objective, rec.slack)
            if best is None or scalar_better(pair, (best.objective, best.slack)):
                best = rec
        assert best.objective == state.objective[state.best]
        np.testing.assert_array_equal(best.x, state.x[state.best])
        viols = [h["best_violation"] for h in state.history]
        assert all(b <= a + 1e-15 for a, b in zip(viols, viols[1:]))

    def test_history_rows_complete(self):
        state = run_global(sphere_problem(), GlobalParams(max_evals=300), 8)
        assert state.history[0]["generation"] == 0
        assert state.history[-1]["evals"] == state.evals
        for row in state.history:
            assert set(row) == {
                "generation", "evals", "best_objective", "best_violation",
                "n_converged",
            }

    def test_budget_never_exceeded(self):
        state = run_global(sphere_problem(), GlobalParams(max_evals=137), 3)
        assert state.evals <= 137
        assert len(state.archive) == state.evals

    def test_one_batch_evaluation_per_generation(self):
        calls = []

        def evaluate_batch(xs):
            calls.append(len(xs))
            return sphere_batch(xs)

        problem = Problem(bounds=UNIT3.copy(), evaluate_batch=evaluate_batch)
        params = GlobalParams(max_evals=300, k_infill=7, n_conv_target=4)
        state = run_global(problem, params, 8)
        assert len(calls) == state.generation + 1
        assert calls[0] == 30 and set(calls[1:-1]) == {7}
        assert sum(calls) == state.evals == 300

    def test_no_convergence_handoff_while_infeasible(self):
        def evaluate_batch(xs):
            return np.sum(xs, axis=1), -1.0 - xs[:, :1]  # never feasible

        problem = Problem(bounds=UNIT3.copy(), evaluate_batch=evaluate_batch)
        state = run_global(problem, GlobalParams(max_evals=200, theta_conv=1.0, n_conv_target=1),
                           1)
        assert state.mask.sum() >= 1
        assert state.evals == 200
        assert state.warning == "no feasible point found; returning least-violating"
        assert state.stop_reason == "budget"

    def test_constant_feasible_objective_stalls(self, monkeypatch):
        monkeypatch.setattr(global_opt, "STALL_GENERATIONS", 7)

        def evaluate_batch(xs):
            return np.ones(len(xs)), np.ones((len(xs), 1))  # flat and feasible

        problem = Problem(bounds=UNIT3.copy(), evaluate_batch=evaluate_batch)
        state = run_global(problem, GlobalParams(max_evals=5000, n_conv_target=4), 3)
        assert state.stop_reason == "stalled"
        assert state.generation == 7
        assert state.evals == 30 + 7 * 6  # pop_size + STALL_GENERATIONS * k_infill

    def test_tied_best_keeps_the_incumbent(self):
        """Every evaluation ties (flat, feasible): the first row stays best,
        as a scan that moves only to a strictly better row leaves it."""
        def evaluate_batch(xs):
            return np.ones(len(xs)), np.ones((len(xs), 1))

        problem = Problem(bounds=UNIT3.copy(), evaluate_batch=evaluate_batch)
        state = run_global(problem, GlobalParams(max_evals=90, n_conv_target=4), 3)
        assert state.generation > 0
        assert state.best == 0
        assert state.x[state.best].tobytes() == state.archive[0].x.tobytes()

    def test_infeasible_everywhere_never_stalls(self, monkeypatch):
        monkeypatch.setattr(global_opt, "STALL_GENERATIONS", 1)

        def evaluate_batch(xs):
            return np.ones(len(xs)), -np.ones((len(xs), 1))  # flat, never feasible

        problem = Problem(bounds=UNIT3.copy(), evaluate_batch=evaluate_batch)
        state = run_global(problem, GlobalParams(max_evals=300), 3)
        assert state.stop_reason == "budget"
        assert state.evals == 300

    def test_stall_rule_off_adds_no_second_path(self, monkeypatch):
        params = GlobalParams(max_evals=600, n_conv_target=4)
        monkeypatch.setattr(global_opt, "STALL_GENERATIONS", 10**9)
        off = run_global(sphere_problem(), params, 9)
        # 600 evaluations allow (600 - 30) / 6 = 95 generations
        monkeypatch.setattr(global_opt, "STALL_GENERATIONS", 96)
        never = run_global(sphere_problem(), params, 9)
        assert off.stop_reason == never.stop_reason == "budget"
        assert off.history == never.history
        assert len(off.archive) == len(never.archive) == 600
        for ra, rb in zip(off.archive, never.archive):
            assert ra.x.tobytes() == rb.x.tobytes()
            assert ra.slack.tobytes() == rb.slack.tobytes()
            assert ra.objective == rb.objective

    def test_zero_infill_rejected(self):
        with pytest.raises(ConfigError, match="k_infill"):
            run_global(sphere_problem(), GlobalParams(max_evals=100, k_infill=0), 0)
        with pytest.raises(ConfigError, match="cr"):
            GlobalParams(cr=5)

    def test_problem_requires_some_evaluator(self):
        with pytest.raises(TypeError):
            Problem(bounds=UNIT3.copy())

    @pytest.mark.parametrize("bound", [[np.nan, 1.0], [-np.inf, 1.0], [0.0, np.inf], [1.0, 1.0]],
                             ids=["nan", "minus_inf", "plus_inf", "empty"])
    def test_nonfinite_or_empty_bounds_rejected_before_any_evaluation(self, bound):
        calls = []

        def evaluate_batch(xs):
            calls.append(xs)
            return sphere_batch(xs)

        with pytest.raises(ConfigError, match="finite with lo < hi"):
            run_global(Problem(bounds=[bound, [0.0, 1.0]], evaluate_batch=evaluate_batch),
                       GlobalParams(max_evals=100), 0)
        assert calls == []
