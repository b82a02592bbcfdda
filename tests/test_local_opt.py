import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import no_sine_test, rowwise
from sarsizer import coarse
from sarsizer.adc import AdcConfig
from sarsizer.errors import ConfigError, MetricsError
from sarsizer.local_opt import (
    LocalParams,
    blend_decision,
    exploratory_search,
    run_local,
)
from sarsizer.pipeline import default_bounds
from sarsizer.problem import CheapObjective, CoarseProblem, ExpensiveObjective, bounds_array
from sarsizer.sndr import plan_test
from sarsizer.specs import DerivedSpecs


def reference_pattern_search(f, x0, bounds, delta_init=0.1, eps=1e-3,
                             max_iter=200, shrink=0.5, max_extrap=8):
    """Plain textbook Hooke-Jeeves, written independently of the package.

    Coordinate probes +step then -step per dim with greedy acceptance,
    pattern extrapolation doubling while improving, global step shrink on
    a failed pass, termination on the step norm.  Returns the end point,
    its value, the trajectory of accepted bases, and the events a batched
    search expands into the rows it scores: ("sweep", base, (p, delta))
    each time the sweep (re)starts at dim p, ("pattern", start, move) for
    each pattern move.
    """
    x = np.asarray(x0, dtype=float).copy()
    lo, hi = bounds[:, 0], bounds[:, 1]
    span = hi - lo
    delta = np.full(len(x), delta_init)
    f_x = f(x)
    accepted = [x.copy()]
    events = []
    for _ in range(max_iter):
        # exploratory pass
        base, f_base = x.copy(), f_x
        improved = False
        events.append(("sweep", base, (0, delta.copy())))
        for j in range(len(x)):
            step = delta[j] * span[j]
            for sign in (1.0, -1.0):
                cand = base.copy()
                cand[j] = min(max(base[j] + sign * step, lo[j]), hi[j])
                if cand[j] == base[j]:
                    continue
                f_c = f(cand)
                if f_c < f_base:
                    base, f_base = cand, f_c
                    improved = True
                    events.append(("sweep", base, (j + 1, delta.copy())))
                    break
        if improved:
            move = base - x
            events.append(("pattern", base, move))
            cur, f_cur = base, f_base
            for _ in range(max_extrap):
                trial = np.clip(cur + move, lo, hi)
                if np.array_equal(trial, cur):
                    break
                f_t = f(trial)
                if f_t < f_cur:
                    cur, f_cur = trial, f_t
                    move = move * 2.0
                else:
                    break
            x, f_x = cur, f_cur
            accepted.append(x.copy())
        else:
            delta *= shrink
        if np.linalg.norm(delta) < eps:
            break
    return x, f_x, accepted, events


def batched_rows(x0, events, bounds, max_extrap=8):
    """The rows a batched search scores for a textbook run's events: x0;
    per sweep (re)start at dim p around base b, every unclipped probe of
    dims >= p around b; per pattern move, its whole extrapolation chain."""
    lo, hi = bounds[:, 0], bounds[:, 1]
    span = hi - lo
    rows = [np.asarray(x0, dtype=float)]
    for kind, base, arg in events:
        if kind == "sweep":
            p, delta = arg
            for j in range(p, len(base)):
                for sign in (1.0, -1.0):
                    cand = base.copy()
                    cand[j] = min(max(base[j] + sign * (delta[j] * span[j]), lo[j]), hi[j])
                    if cand[j] != base[j]:
                        rows.append(cand)
        else:
            cur, move = base, arg
            for _ in range(max_extrap):
                trial = np.clip(cur + move, lo, hi)
                if np.array_equal(trial, cur):
                    break
                rows.append(trial)
                cur, move = trial, move * 2.0
    return rows


def assert_degenerates(f, x0, bounds, mask=None, max_iter=150, label=""):
    """run_local at lambda = inf scores exactly the rows that batching the
    textbook run gives, and moves through the same bases to the same end
    point with the same value.  Frozen dims are left out of the textbook
    run: it searches f over the free dims with the frozen ones held at x0."""
    x0 = np.asarray(x0, dtype=float)
    free = ~(np.zeros(len(x0), bool) if mask is None else mask)

    def embed(z):
        x = x0.copy()
        x[free] = z
        return x

    rows, probes = [], []

    def scored(xs):
        rows.extend(np.array(xs, dtype=float))
        return rowwise(f)(xs)

    def textbook(z):
        probes.append(embed(z))
        return f(probes[-1])

    params = LocalParams(expensive_every=math.inf, max_iter=max_iter)
    with mock.patch("sarsizer.local_opt.exploratory_search", wraps=exploratory_search) as sweep:
        res = run_local(x0.copy(), ~free, scored, no_sine_test, params, bounds)
    ref_z, ref_f, ref_accepted, events = reference_pattern_search(
        textbook, x0[free], bounds[free], max_iter=max_iter
    )

    expected = [embed(z) for z in batched_rows(x0[free], events, bounds[free])]
    assert len(rows) == len(expected), label
    for a, b in zip(rows, expected):
        assert np.array_equal(a, b), label
    remaining = iter(rows)  # every textbook probe is among them, in order
    assert all(any(np.array_equal(p, r) for r in remaining) for p in probes), label
    assert res.n_cheap == len(rows), label

    starts = [call.args[0] for call in sweep.call_args_list] + [res.x_best]
    bases = [b for i, b in enumerate(starts) if i == 0 or not np.array_equal(b, starts[i - 1])]
    assert len(bases) == len(ref_accepted), label
    for a, b in zip(bases, ref_accepted):
        assert np.array_equal(a, embed(b)), label
    assert np.array_equal(res.x_best, embed(ref_z)), label
    assert res.f_cheap == ref_f, label


def quad(center, weights=None):
    center = np.asarray(center, dtype=float)

    def f(x):
        w = np.ones_like(center) if weights is None else np.asarray(weights)
        return float(np.sum(w * (np.asarray(x) - center) ** 2))

    return f


class TestBlendDecision:
    def test_hand_trace_no_rollback(self):
        f_blend, rollback = blend_decision(10.0, 12.0, 11.0, 0.5, 2.0)
        assert f_blend == 6.0
        assert not rollback

    def test_improving_expensive_never_rolls_back(self):
        # zero penalty and nonnegative cheap value: blend <= cheap
        f_blend, rollback = blend_decision(3.0, 1.0, 2.0, 0.5, 1.0)
        assert f_blend == 1.5
        assert not rollback

    def test_hand_trace_rollback(self):
        f_blend, rollback = blend_decision(1.0, 10.0, 2.0, 0.5, 1.0)
        assert f_blend == 4.5
        assert rollback

    @given(
        cheap=st.floats(0.0, 100.0),
        exp=st.floats(-50.0, 150.0),
        backup=st.floats(-50.0, 150.0),
        w=st.floats(0.0, 1.0),
        a=st.floats(0.01, 10.0),
    )
    def test_rollback_iff_penalty_exceeds_cheap(self, cheap, exp, backup, w, a):
        penalty = a * max(0.0, exp - backup)
        f_blend, rollback = blend_decision(cheap, exp, backup, w, a)
        assert f_blend == pytest.approx((1 - w) * cheap + w * penalty)
        assert rollback == (f_blend > cheap)
        if w == 0.0 or penalty <= cheap:
            assert not rollback


class TestExploratorySearch:
    BOUNDS = np.array([[-1.0, 1.0], [-1.0, 1.0]])

    def test_no_probe_improves_at_optimum(self):
        f = quad([0.0, 0.0])
        out = exploratory_search(
            np.zeros(2), np.array([0.1, 0.1]), np.zeros(2, bool), rowwise(f), self.BOUNDS,
            f_at_x=f(np.zeros(2)),
        )
        assert out is None

    def test_linear_descent_probes_negative(self):
        f = lambda x: float(x[0])
        out = exploratory_search(
            np.zeros(1), np.array([0.05]), np.zeros(1, bool), rowwise(f),
            np.array([[-1.0, 1.0]]), f_at_x=0.0,
        )
        assert out is not None
        x, val = out
        assert x[0] == pytest.approx(-0.1)  # 0.05 of the range 2
        assert val == pytest.approx(-0.1)

    def test_improvement_behind_frozen_dim_is_unreachable(self):
        f = lambda x: float(x[1])  # depends only on the frozen dim
        out = exploratory_search(
            np.zeros(2), np.array([0.1, 0.1]), np.array([False, True]), rowwise(f),
            self.BOUNDS, f_at_x=0.0,
        )
        assert out is None

    def test_rebatches_the_dims_after_an_acceptance(self):
        """One batch per sweep segment: all remaining probes around the
        current point, then only the dims after the accepted one."""
        batches = []

        def f(xs):
            batches.append(np.array(xs))
            return xs.sum(axis=1)

        x, val = exploratory_search(
            np.zeros(3), np.full(3, 0.05), np.zeros(3, bool), f,
            np.array([[-1.0, 1.0]] * 3), f_at_x=0.0,
        )
        assert [len(b) for b in batches] == [6, 4, 2]
        np.testing.assert_array_equal(batches[1][0], [-0.1, 0.1, 0.0])  # around the accepted point
        np.testing.assert_array_equal(x, [-0.1, -0.1, -0.1])
        assert val == pytest.approx(-0.3)

    def test_clipped_probes_are_not_scored(self):
        batches = []

        def f(xs):
            batches.append(np.array(xs))
            return np.ones(len(xs))

        out = exploratory_search(
            np.array([1.0, 0.0]), np.full(2, 0.25), np.zeros(2, bool), f, self.BOUNDS,
            f_at_x=0.0,
        )
        assert out is None
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0], [[0.5, 0.0], [1.0, 0.5], [1.0, -0.5]])


class TestRunLocal:
    def test_frozen_dims_bit_unchanged(self):
        bounds = np.array([[0.0, 1.0]] * 2)
        x0 = np.array([1.0, 1.0]) * 0.77
        mask = np.array([False, True])
        res = run_local(x0, mask, rowwise(quad([0.0, 0.0])), no_sine_test,
                        LocalParams(expensive_every=math.inf), bounds)
        assert abs(res.x_best[0]) < 1e-3
        assert res.x_best[1] == x0[1]

    def test_ten_dim_quadratic_five_frozen(self):
        # the sizing-flow shape: half the variables already converged
        d = 10
        bounds = np.array([[0.0, 1.0]] * d)
        target = np.linspace(0.21, 0.68, d)
        mask = np.zeros(d, bool)
        mask[5:] = True
        x0 = np.full(d, 0.9)
        res = run_local(x0, mask, rowwise(quad(target)), no_sine_test,
                        LocalParams(expensive_every=math.inf), bounds)
        assert res.iterations <= 60
        assert np.max(np.abs(res.x_best[:5] - target[:5])) < 1e-3
        np.testing.assert_array_equal(res.x_best[5:], x0[5:])

    def test_equal_fidelities_never_roll_back(self):
        bounds = np.array([[0.0, 1.0]] * 3)
        f = quad([0.3, 0.5, 0.7])
        res = run_local(
            np.array([0.9, 0.9, 0.9]), np.zeros(3, bool), rowwise(f), f,
            LocalParams(expensive_every=1), bounds,
        )
        assert res.rollbacks == 0
        assert res.f_expensive == pytest.approx(res.f_cheap)

    def test_cheap_value_nonincreasing_without_rollbacks(self):
        bounds = np.array([[0.0, 1.0]] * 4)
        res = run_local(
            np.full(4, 0.88), np.zeros(4, bool), rowwise(quad([0.4] * 4)), no_sine_test,
            LocalParams(expensive_every=math.inf), bounds,
        )
        vals = [row["f_cheap"] for row in res.history]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_rollback_restores_backup_and_raises_weight(self):
        # expensive objective hates any move away from the start, so the
        # first checkpoint must roll back to it
        bounds = np.array([[0.0, 1.0]] * 2)
        x0 = np.array([0.8, 0.8])
        cheap = rowwise(quad([0.2, 0.2]))

        def hostile(x):
            return 0.0 if np.array_equal(x, x0) else 1e6

        res = run_local(
            x0, np.zeros(2, bool), cheap, hostile,
            LocalParams(expensive_every=1, max_iter=3), bounds,
        )
        assert res.rollbacks >= 1
        first_rollback = next(r for r in res.history if r["rollback"])
        assert first_rollback["w"] == pytest.approx(0.6)
        ws = [r["w"] for r in res.history]
        assert all(b >= a for a, b in zip(ws, ws[1:]))
        assert max(ws) <= 1.0
        assert np.array_equal(res.x_best, x0)

    def test_failing_expensive_evaluator_forces_rollback(self):
        bounds = np.array([[0.0, 1.0]] * 2)

        def broken(x):
            raise MetricsError("capture failed")

        res = run_local(
            np.array([0.9, 0.9]), np.zeros(2, bool), rowwise(quad([0.1, 0.1])), broken,
            LocalParams(expensive_every=1, max_iter=5), bounds,
        )
        assert res.rollbacks >= 1
        assert res.f_expensive == math.inf
        assert res.n_expensive_failed >= 1
        assert res.n_expensive_failed == res.n_expensive

    def test_programming_error_in_expensive_evaluator_propagates(self):
        """A bug is never turned into a rollback."""
        bounds = np.array([[0.0, 1.0]] * 2)

        def buggy(x):
            raise RuntimeError("not an optimizer signal")

        with pytest.raises(RuntimeError, match="not an optimizer signal"):
            run_local(
                np.array([0.9, 0.9]), np.zeros(2, bool), rowwise(quad([0.1, 0.1])), buggy,
                LocalParams(expensive_every=1, max_iter=5), bounds,
            )

    def test_no_failures_counted_for_a_working_evaluator(self):
        bounds = np.array([[0.0, 1.0]] * 2)
        res = run_local(
            np.array([0.9, 0.9]), np.zeros(2, bool), rowwise(quad([0.1, 0.1])), quad([0.2, 0.2]),
            LocalParams(expensive_every=1, max_iter=5), bounds,
        )
        assert res.n_expensive >= 1
        assert res.n_expensive_failed == 0

    def test_delta_shrinks_on_rollback(self):
        bounds = np.array([[0.0, 1.0]] * 2)
        x0 = np.array([0.8, 0.8])

        def hostile(x):
            return 0.0 if np.array_equal(x, x0) else 1e6

        res = run_local(
            x0, np.zeros(2, bool), rowwise(quad([0.2, 0.2])), hostile,
            LocalParams(expensive_every=1, max_iter=2), bounds,
        )
        norms = [r["delta_norm"] for r in res.history]
        assert norms[0] < np.linalg.norm([0.1, 0.1])

    def test_n_cheap_counts_scored_rows(self):
        rows = []

        def f(xs):
            rows.extend(xs)
            return rowwise(quad([0.3, 0.6]))(xs)

        res = run_local(np.array([0.9, 0.1]), np.zeros(2, bool), f, no_sine_test,
                        LocalParams(expensive_every=math.inf), np.array([[0.0, 1.0]] * 2))
        assert res.n_cheap == len(rows) > res.iterations

    def test_infinite_lambda_runs_no_sine_test(self):
        res = run_local(np.array([0.9, 0.1]), np.zeros(2, bool), rowwise(quad([0.3, 0.6])),
                        no_sine_test, LocalParams(expensive_every=math.inf),
                        np.array([[0.0, 1.0]] * 2))
        assert res.iterations > 1
        assert res.n_expensive == 0 and res.n_expensive_failed == 0
        assert res.f_expensive is None
        assert all(row["f_expensive"] is None for row in res.history)

    def test_all_frozen_terminates_immediately(self):
        bounds = np.array([[0.0, 1.0]] * 2)
        x0 = np.array([0.5, 0.5])
        res = run_local(x0, np.ones(2, bool), rowwise(quad([0.0, 0.0])), no_sine_test,
                        LocalParams(expensive_every=math.inf), bounds)
        assert res.iterations == 1
        np.testing.assert_array_equal(res.x_best, x0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            LocalParams(expensive_every=0)
        with pytest.raises(ConfigError, match="expensive_every"):
            LocalParams(expensive_every=2.5)  # would run as lambda = 2
        with pytest.raises(ConfigError, match="expensive_every"):
            LocalParams(expensive_every=math.nan)
        with pytest.raises(ConfigError):
            LocalParams(delta_w=0.0)
        with pytest.raises(ConfigError, match="max_iter"):
            LocalParams(max_iter=0)
        with pytest.raises(ConfigError):
            LocalParams(w0=7)

    def test_rejected_bound_point_runs_one_sine_test(self):
        """The cheap objective pulls toward the upper bound and every sine
        test but the start's says no: after each rollback the shrunk step's
        pattern chain clips onto the same bound point again (until its
        eight doublings fall short of the bound), and that point's check is
        read back instead of run again."""
        x0, bounds = np.array([0.5]), np.array([[0.0, 1.0]])
        calls = []

        def hostile(x):
            calls.append(x.copy())
            return 0.0 if np.array_equal(x, x0) else 1e6

        res = run_local(x0, np.zeros(1, bool), rowwise(lambda x: 1.0 - x[0]), hostile,
                        LocalParams(expensive_every=1), bounds)
        checks = 2 + sum(row["f_expensive"] is not None for row in res.history)
        assert [x.tolist() for x in calls[:2]] == [[0.5], [1.0]]
        assert res.n_expensive == len(calls) == 3 < checks == 9
        # The trajectory is the one without the memo: seven rollbacks to x0.
        np.testing.assert_array_equal(res.x_best, x0)
        w = 0.5
        for k, row in enumerate(res.history, start=1):
            w = min(w + 0.1, 1.0)
            assert row == {"iteration": k, "f_cheap": 0.5, "f_expensive": 1e6, "w": w,
                           "delta_norm": pytest.approx(0.1 * 0.5**k), "rollback": 1}
        assert len(res.history) == res.rollbacks == 7
        assert (res.f_cheap, res.f_expensive) == (0.5, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), failing=st.booleans())
    def test_each_point_runs_at_most_one_sine_test(self, seed, failing):
        """n_expensive counts the calls made, one per distinct point, and
        n_expensive_failed the calls that raised."""
        rng = np.random.default_rng(seed)
        cheap_target, exp_target = rng.random(3), rng.random(3)
        calls = []

        def expensive(x):
            calls.append(x.tobytes())
            if failing and x[0] > 0.5:
                raise MetricsError("unusable capture")
            return quad(exp_target)(x)

        res = run_local(rng.random(3), np.zeros(3, bool), rowwise(quad(cheap_target)), expensive,
                        LocalParams(expensive_every=1, max_iter=40), np.array([[0.0, 1.0]] * 3))
        checks = 2 + sum(row["f_expensive"] is not None for row in res.history)
        assert res.n_expensive == len(calls) == len(set(calls)) <= checks
        assert res.n_expensive_failed == sum(np.frombuffer(c)[0] > 0.5 for c in calls) * failing

    def test_sine_test_metrics_error_counted_as_failed(self, monkeypatch):
        """A real sine-test objective lets MetricsError reach run_local,
        which counts it in n_expensive_failed."""

        def unusable(*args, **kwargs):
            raise MetricsError("unusable capture")

        monkeypatch.setattr("sarsizer.problem.spectrum_metrics", unusable)
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        bounds = default_bounds(cfg)
        plan = plan_test(cfg.f_s, 256, 4, 0.097 * cfg.f_s, 0.475, seed=5)
        box = bounds_array(bounds)
        res = run_local(
            box.mean(axis=1), np.zeros(len(box), bool), rowwise(quad(box[:, 0])),
            ExpensiveObjective(cfg=cfg, plan=plan, bounds=bounds),
            LocalParams(expensive_every=1, max_iter=3), box,
        )
        assert res.n_expensive >= 2
        assert res.n_expensive_failed == res.n_expensive
        assert res.f_expensive == math.inf


class TestCheapObjective:
    class ToyProblem:
        """evaluate_batch(xs): power x[0], one slack x[1], per row."""

        def evaluate_batch(self, xs, memo=None):
            return xs[:, 0].copy(), xs[:, 1:2].copy()

    def objective(self):
        return CheapObjective(problem=self.ToyProblem(), power_scale=1.0,
                              slack_scale=np.ones(1))

    def test_remembers_lowest_valued_feasible_point(self):
        f = self.objective()
        values = f(np.array([[2.0, 1.0], [1.0, 0.5],
                             # lower-valued but infeasible, then feasible but
                             # higher: neither replaces it
                             [0.1, -0.01], [3.0, 0.0]]))
        assert values[0] == 2.0
        assert values[1] == 1.0
        assert values[2] == pytest.approx(0.2)
        assert values[3] == 3.0
        np.testing.assert_array_equal(f.best_feasible(), [1.0, 0.5])

    def test_none_when_nothing_feasible_scored(self):
        f = self.objective()
        assert f.best_feasible() is None  # nothing scored yet
        f(np.array([[0.1, -0.01]]))
        assert f.best_feasible() is None

    def test_equal_values_keep_the_first_row(self):
        f = self.objective()
        f(np.array([[1.0, 0.5], [1.0, 0.25]]))
        np.testing.assert_array_equal(f.best_feasible(), [1.0, 0.5])

    # Few distinct values: rows repeat, values tie, and some rows are infeasible.
    toy_rows = st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.0]),
                                  st.sampled_from([-0.5, -0.0, 0.0, 0.25])),
                        min_size=1, max_size=6)

    @given(st.lists(toy_rows, min_size=1, max_size=4))
    def test_best_feasible_is_the_scan_over_requested_rows(self, batches):
        """The memo's answer is the row a walk over every requested row, in
        order, keeps when it moves only to a strictly lower-valued feasible
        row."""
        f = self.objective()
        best, best_value = None, np.inf
        for batch in batches:
            xs = np.array(batch)
            for x, value in zip(xs, f(xs)):
                if value < best_value and x[1] >= 0.0:
                    best, best_value = x, value
        got = f.best_feasible()
        assert (got is None) == (best is None)
        if best is not None:
            assert got.tobytes() == best.tobytes()


DESK8 = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
DESK8_PROBLEM = CoarseProblem(DESK8, DerivedSpecs.derive(8, 1.0, 1.0), default_bounds(DESK8))
DESK8_BOX = bounds_array(DESK8_PROBLEM.bounds)
# A coarse-feasible design: random in-bounds designs almost never are, so
# the rows below keep each of its coordinates or redraw it in bounds.
DESK8_FEASIBLE = np.array([5e-16, 2e4, 2.1e-7, 5e-6, 2e-8, 1e-8, 50.0, 2e-8])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.one_of(st.none(), st.floats(0.0, 1.0)), min_size=len(DESK8_BOX),
                         max_size=len(DESK8_BOX)), min_size=1, max_size=6))
def test_cheap_objective_batch_equals_rows_alone(rows):
    """Scoring a batch gives each row's own value, bit for bit, and the
    same best feasible point as scoring the rows one at a time."""
    lo, hi = DESK8_BOX[:, 0], DESK8_BOX[:, 1]
    xs = np.array([[x if u is None else lo[j] + u * (hi[j] - lo[j])
                    for j, (u, x) in enumerate(zip(row, DESK8_FEASIBLE))] for row in rows])
    batched = CheapObjective.anchored_at(DESK8_PROBLEM, xs[0])
    alone = CheapObjective.anchored_at(DESK8_PROBLEM, xs[0])
    values = batched(xs)
    one_by_one = np.concatenate([alone(x[None]) for x in xs])
    assert values.tobytes() == one_by_one.tobytes()
    if alone.best_feasible() is None:
        assert batched.best_feasible() is None
    else:
        assert batched.best_feasible().tobytes() == alone.best_feasible().tobytes()


def test_cheap_objective_anchor_is_feasible():
    assert DESK8_PROBLEM.report(DESK8_FEASIBLE).feasible


class TestCheapObjectiveMemo:
    """Rows already scored by one objective never reach the kernel again."""

    @pytest.fixture()
    def kernel_rows(self, monkeypatch):
        """The number of candidates in each coarse kernel call."""
        calls = []
        original = coarse.convert_rows

        def counted(cfg, designs, v_sampled, **kwargs):
            calls.append(len(v_sampled) // (1 + coarse.POWER_GRID_POINTS))
            return original(cfg, designs, v_sampled, **kwargs)

        monkeypatch.setattr(coarse, "convert_rows", counted)
        return calls

    @staticmethod
    def rows(n, seed):
        """Distinct coarse-feasible and infeasible rows around DESK8_FEASIBLE."""
        rng = np.random.default_rng(seed)
        xs = np.tile(DESK8_FEASIBLE, (n, 1))
        redraw = rng.random(xs.shape) < 0.1
        redraw[np.arange(n), np.arange(n) % xs.shape[1]] = True
        lo, hi = DESK8_BOX[:, 0], DESK8_BOX[:, 1]
        xs = np.where(redraw, lo + rng.random(xs.shape) * (hi - lo), xs)
        assert len(np.unique(xs, axis=0)) == n
        return xs

    def test_start_point_scored_once(self, kernel_rows):
        cheap = CheapObjective.anchored_at(DESK8_PROBLEM, DESK8_FEASIBLE)
        [value] = cheap(DESK8_FEASIBLE[None])
        assert kernel_rows == [1]
        assert value == 1.0  # its own power over itself, feasible

    def test_mixed_batch_sends_only_unseen_rows(self, kernel_rows):
        xs = self.rows(12, seed=4)
        cheap = CheapObjective.anchored_at(DESK8_PROBLEM, xs[0])
        cheap(xs[:5])
        mixed = np.vstack([xs[3], xs[7], xs[1], xs[7], xs[9], xs[4]])
        kernel_rows.clear()
        values = cheap(mixed)
        assert kernel_rows == [2]  # xs[7] and xs[9], once each
        fresh = CheapObjective.anchored_at(DESK8_PROBLEM, xs[0])(mixed)
        assert values.tobytes() == fresh.tobytes()
        kernel_rows.clear()
        cheap(mixed[::-1])
        assert kernel_rows == []  # nothing unseen: no kernel call at all

    def test_sigma_only_sweep_makes_no_kernel_call(self, kernel_rows):
        """Probes that move only sigma_cmp around a scored point reuse its
        conversions: each is checked and priced with its own sigma_cmp, and
        scores as an objective that converts it would."""
        cheap = CheapObjective.anchored_at(DESK8_PROBLEM, DESK8_FEASIBLE)
        sweep = np.tile(DESK8_FEASIBLE, (9, 1))
        sweep[:, 3] = np.linspace(*DESK8_BOX[3], 10)[1:]  # sigma_cmp, the anchor's excluded
        kernel_rows.clear()
        values = cheap(sweep)
        assert kernel_rows == []
        assert len(cheap.converted) == 1 and len(cheap.scored) == 10
        kernel_rows.clear()
        fresh = [CheapObjective(DESK8_PROBLEM, cheap.power_scale, cheap.slack_scale)(x[None])
                 for x in sweep]
        assert kernel_rows == [1] * 9  # each fresh objective converts its row
        assert values.tobytes() == np.concatenate(fresh).tobytes()
        assert len(set(values.tolist())) > 1  # sigma_cmp still moves power and noise

    def test_best_feasible_x_unchanged(self):
        """The best feasible row over several overlapping batches is the
        one a walk over every requested row, in order, keeps."""
        xs = self.rows(10, seed=5)
        batches = [xs[:4], xs[2:7], np.vstack([xs[6], xs[0], xs[9]]), xs[::-2]]
        cheap = CheapObjective.anchored_at(DESK8_PROBLEM, xs[0])
        values = [cheap(batch) for batch in batches]
        best, best_value = None, np.inf
        for batch, batch_values in zip(batches, values):
            for x, value in zip(batch, batch_values):
                if value < best_value and DESK8_PROBLEM.report(x).feasible:
                    best, best_value = x, value
        assert best is not None
        assert cheap.best_feasible().tobytes() == best.tobytes()
        assert cheap(best[None])[0] == best_value


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d),    # center
    st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d),   # weights
    st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d),    # start
    st.lists(st.booleans(), min_size=d, max_size=d),          # frozen
)))
def test_random_quadratic_degenerates_to_reference(case):
    center, weights, x0, frozen = (np.array(v) for v in case)
    assert_degenerates(quad(center, weights), x0, np.array([[0.0, 1.0]] * len(x0)),
                       mask=frozen.astype(bool))


FUNCTIONS = {
    "sphere": (quad([0.12, -0.34, 0.5]), np.array([[-2.0, 2.0]] * 3),
               np.array([1.5, 1.5, 1.5])),
    "rosenbrock": (
        lambda x: float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2),
        np.array([[-2.0, 2.0]] * 2),
        np.array([-1.2, 1.0]),
    ),
    "rastrigin": (
        lambda x: float(20 + np.sum(np.asarray(x) ** 2 - 10 * np.cos(2 * np.pi * np.asarray(x)))),
        np.array([[-5.12, 5.12]] * 2),
        np.array([2.1, -1.7]),
    ),
    "booth": (
        lambda x: float((x[0] + 2 * x[1] - 7) ** 2 + (2 * x[0] + x[1] - 5) ** 2),
        np.array([[-10.0, 10.0]] * 2),
        np.array([0.0, 0.0]),
    ),
    "beale": (
        lambda x: float(
            (1.5 - x[0] + x[0] * x[1]) ** 2
            + (2.25 - x[0] + x[0] * x[1] ** 2) ** 2
            + (2.625 - x[0] + x[0] * x[1] ** 3) ** 2
        ),
        np.array([[-4.5, 4.5]] * 2),
        np.array([1.0, 1.0]),
    ),
}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_degenerates_to_reference_pattern_search(name):
    """With expensive evaluation disabled, the scored rows, accepted bases
    and end point must match an independently written plain pattern
    search exactly, once its sweeps and pattern moves are batched."""
    f, bounds, x0 = FUNCTIONS[name]
    assert_degenerates(f, x0, bounds)
