import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sarsizer.adc import AdcConfig
from sarsizer.coarse import CoarseReport
from sarsizer.errors import ConfigError, MetricsError
from sarsizer.local_opt import (
    LocalParams,
    blend_decision,
    exploratory_search,
    run_local,
)
from sarsizer.pipeline import default_bounds
from sarsizer.problem import CheapObjective, ExpensiveObjective, bounds_array
from sarsizer.sndr import plan_test


def reference_pattern_search(f, x0, bounds, delta_init=0.1, eps=1e-3,
                             max_iter=200, shrink=0.5, max_extrap=8):
    """Plain textbook Hooke-Jeeves, written independently of the package.

    Coordinate probes +step then -step per dim with greedy acceptance,
    pattern extrapolation doubling while improving, global step shrink on
    a failed pass, termination on the step norm.  Returns the trajectory
    of accepted bases.
    """
    x = np.asarray(x0, dtype=float).copy()
    lo, hi = bounds[:, 0], bounds[:, 1]
    span = hi - lo
    delta = np.full(len(x), delta_init)
    f_x = f(x)
    accepted = [x.copy()]
    for _ in range(max_iter):
        # exploratory pass
        base, f_base = x.copy(), f_x
        improved = False
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
                    break
        if improved:
            move = base - x
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
    return x, f_x, accepted


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
            np.zeros(2), np.array([0.1, 0.1]), np.zeros(2, bool), f, self.BOUNDS
        )
        assert out is None

    def test_linear_descent_probes_negative(self):
        f = lambda x: float(x[0])
        out = exploratory_search(
            np.zeros(1), np.array([0.05]), np.zeros(1, bool), f,
            np.array([[-1.0, 1.0]])
        )
        assert out is not None
        x, val = out
        assert x[0] == pytest.approx(-0.1)  # 0.05 of the range 2
        assert val == pytest.approx(-0.1)

    def test_improvement_behind_frozen_dim_is_unreachable(self):
        f = lambda x: float(x[1])  # depends only on the frozen dim
        out = exploratory_search(
            np.zeros(2), np.array([0.1, 0.1]), np.array([False, True]), f,
            self.BOUNDS
        )
        assert out is None


class TestRunLocal:
    def test_frozen_dims_bit_unchanged(self):
        bounds = np.array([[0.0, 1.0]] * 2)
        x0 = np.array([1.0, 1.0]) * 0.77
        mask = np.array([False, True])
        res = run_local(x0, mask, quad([0.0, 0.0]), None, LocalParams(), bounds)
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
        res = run_local(x0, mask, quad(target), None, LocalParams(), bounds)
        assert res.iterations <= 60
        assert np.max(np.abs(res.x_best[:5] - target[:5])) < 1e-3
        np.testing.assert_array_equal(res.x_best[5:], x0[5:])

    def test_equal_fidelities_never_roll_back(self):
        bounds = np.array([[0.0, 1.0]] * 3)
        f = quad([0.3, 0.5, 0.7])
        res = run_local(
            np.array([0.9, 0.9, 0.9]), np.zeros(3, bool), f, f,
            LocalParams(expensive_every=1), bounds,
        )
        assert res.rollbacks == 0
        assert res.f_expensive == pytest.approx(res.f_cheap)

    def test_cheap_value_nonincreasing_without_rollbacks(self):
        bounds = np.array([[0.0, 1.0]] * 4)
        res = run_local(
            np.full(4, 0.88), np.zeros(4, bool), quad([0.4] * 4), None,
            LocalParams(), bounds,
        )
        vals = [row["f_cheap"] for row in res.history]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_rollback_restores_backup_and_raises_weight(self):
        # expensive objective hates any move away from the start, so the
        # first checkpoint must roll back to it
        bounds = np.array([[0.0, 1.0]] * 2)
        x0 = np.array([0.8, 0.8])
        cheap = quad([0.2, 0.2])

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
            np.array([0.9, 0.9]), np.zeros(2, bool), quad([0.1, 0.1]), broken,
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
                np.array([0.9, 0.9]), np.zeros(2, bool), quad([0.1, 0.1]), buggy,
                LocalParams(expensive_every=1, max_iter=5), bounds,
            )

    def test_no_failures_counted_for_a_working_evaluator(self):
        bounds = np.array([[0.0, 1.0]] * 2)
        res = run_local(
            np.array([0.9, 0.9]), np.zeros(2, bool), quad([0.1, 0.1]), quad([0.2, 0.2]),
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
            x0, np.zeros(2, bool), quad([0.2, 0.2]), hostile,
            LocalParams(expensive_every=1, max_iter=2), bounds,
        )
        norms = [r["delta_norm"] for r in res.history]
        assert norms[0] < np.linalg.norm([0.1, 0.1])

    def test_all_frozen_terminates_immediately(self):
        bounds = np.array([[0.0, 1.0]] * 2)
        x0 = np.array([0.5, 0.5])
        res = run_local(x0, np.ones(2, bool), quad([0.0, 0.0]), None,
                        LocalParams(), bounds)
        assert res.iterations == 1
        np.testing.assert_array_equal(res.x_best, x0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            LocalParams(expensive_every=0)
        with pytest.raises(ConfigError):
            LocalParams(delta_w=0.0)
        with pytest.raises(ConfigError):
            LocalParams(w0=7)

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
            box.mean(axis=1), np.zeros(len(box), bool), quad(box[:, 0]),
            ExpensiveObjective(cfg=cfg, plan=plan, bounds=bounds),
            LocalParams(expensive_every=1, max_iter=3), box,
        )
        assert res.n_expensive >= 2
        assert res.n_expensive_failed == res.n_expensive
        assert res.f_expensive == math.inf


class TestCheapObjective:
    class ToyProblem:
        """report(x): power x[0], one slack x[1]."""

        def report(self, x):
            return CoarseReport(sampling_error=0.0, ssre=np.zeros(0), noise_rms=0.0,
                                power=float(x[0]), timing_ok=True, slack=np.array([x[1]]))

    def objective(self):
        return CheapObjective(problem=self.ToyProblem(), power_scale=1.0,
                              slack_scale=np.ones(1))

    def test_remembers_lowest_valued_feasible_point(self):
        f = self.objective()
        assert f(np.array([2.0, 1.0])) == 2.0
        assert f(np.array([1.0, 0.5])) == 1.0
        # lower-valued but infeasible, then feasible but higher: neither replaces it
        assert f(np.array([0.1, -0.01])) == pytest.approx(0.2)
        assert f(np.array([3.0, 0.0])) == 3.0
        np.testing.assert_array_equal(f.best_feasible_x, [1.0, 0.5])

    def test_none_when_nothing_feasible_scored(self):
        f = self.objective()
        f(np.array([0.1, -0.01]))
        assert f.best_feasible_x is None


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
    """With expensive evaluation disabled, probe and accept sequences must
    match an independently written plain pattern search exactly."""
    f, bounds, x0 = FUNCTIONS[name]

    mine_points, ref_points = [], []

    def instrument(log):
        def wrapped(x):
            log.append(np.asarray(x, float).copy())
            return f(x)

        return wrapped

    params = LocalParams(expensive_every=math.inf, max_iter=150)
    res = run_local(x0.copy(), np.zeros(len(x0), bool), instrument(mine_points),
                    None, params, bounds)
    ref_x, ref_f, ref_accepted = reference_pattern_search(
        instrument(ref_points), x0.copy(), bounds, max_iter=150
    )

    assert len(mine_points) == len(ref_points)
    for a, b in zip(mine_points, ref_points):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(res.x_best, ref_x)
    assert res.f_cheap == ref_f
