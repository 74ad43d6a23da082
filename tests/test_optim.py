"""Linear programming kernel and the entropy/quadratic maximization loops."""

import numpy as np
import pytest

from emrfuse import LinearProgram, SolverConfig, lp_solve
from emrfuse.optim import (
    _cell_matrix,
    _Simplex,
    feasible_point,
    maxent_projected_gradient,
    quadratic_projected_gradient,
)


def grid_cells(rows, cols):
    return [(i, j) for i in range(rows) for j in range(cols)]


def assert_maximum_flow(cells, marginals, forbidden, point, residual):
    """An infeasible phase I over two unit marginals ends on a maximum
    flow: nonnegative, within both marginals, of total 1 - residual / 2."""
    allowed = [c for c in cells if c not in set(forbidden)]
    A, b = _cell_matrix(allowed, marginals)
    assert point.min() >= 0.0
    assert (A @ point <= b + 1e-12).all()
    assert point.sum() == pytest.approx(1.0 - residual / 2, abs=1e-12)


# -- linear programming ------------------------------------------------------


def test_lp_solve_simple_optimum():
    lp = LinearProgram(
        objective=np.array([3.0, 1.0]),
        eq_matrix=np.array([[1.0, 1.0]]),
        eq_rhs=np.array([1.0]),
    )
    result = lp_solve(lp)
    assert result.status == "optimal"
    assert result.value == pytest.approx(3.0, abs=1e-12)
    assert result.x == pytest.approx([1.0, 0.0], abs=1e-12)


def test_lp_solve_detects_infeasibility():
    lp = LinearProgram(
        objective=np.array([1.0]),
        eq_matrix=np.array([[0.0]]),
        eq_rhs=np.array([1.0]),
    )
    result = lp_solve(lp)
    assert result.status == "infeasible"
    assert result.phase1_residual > 1e-9


def test_lp_solve_detects_unboundedness():
    lp = LinearProgram(
        objective=np.array([1.0, 0.0]),
        eq_matrix=np.array([[0.0, 1.0]]),
        eq_rhs=np.array([1.0]),
    )
    result = lp_solve(lp)
    assert result.status == "unbounded"


def test_lp_solve_fixed_zero_mask():
    # Transportation square with one corner disabled.
    cells = grid_cells(2, 2)
    A, b = _cell_matrix(cells, [np.array([0.6, 0.4]), np.array([0.5, 0.5])])
    lp = LinearProgram(
        objective=np.zeros(4),
        eq_matrix=A,
        eq_rhs=b,
        fixed_zero=np.array([False, False, True, False]),
    )
    result = lp_solve(lp)
    assert result.status == "optimal"
    x = dict(zip(cells, result.x))
    assert x[(1, 0)] == 0.0
    assert x[(1, 1)] == pytest.approx(0.4, abs=1e-9)
    assert x[(0, 0)] == pytest.approx(0.5, abs=1e-9)
    assert x[(0, 1)] == pytest.approx(0.1, abs=1e-9)


def test_lp_solve_dimension_checks():
    with pytest.raises(ValueError):
        LinearProgram(
            objective=np.array([1.0]),
            eq_matrix=np.array([[1.0, 1.0]]),
            eq_rhs=np.array([1.0]),
        )


def test_simplex_duals_satisfy_complementary_slackness():
    cells = grid_cells(3, 3)
    marg = [np.array([0.3, 0.3, 0.4]), np.array([0.2, 0.5, 0.3])]
    A, b = _cell_matrix(cells, marg)
    rng = np.random.default_rng(7)
    c = rng.uniform(-1.0, 1.0, len(cells))
    simplex = _Simplex(A, b)
    status, x = simplex.optimize(c)
    assert status == "optimal"
    y = simplex.duals(c)
    reduced = c - y @ simplex.A_full[:, : simplex.n]
    # Dual feasibility and complementary slackness at the optimum.
    assert reduced.max() <= 1e-8
    assert np.abs(reduced[x > 1e-9]).max() <= 1e-8


def test_simplex_warm_restart_changes_objective():
    cells = grid_cells(2, 3)
    marg = [np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5])]
    A, b = _cell_matrix(cells, marg)
    simplex = _Simplex(A, b)
    c1 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    c2 = -c1
    _, x1 = simplex.optimize(c1)
    _, x2 = simplex.optimize(c2)
    assert c1 @ x1 == pytest.approx(0.2, abs=1e-9)
    assert c1 @ x2 == pytest.approx(0.0, abs=1e-9)


# -- feasibility -------------------------------------------------------------


def test_feasible_point_on_open_square():
    cells = grid_cells(2, 2)
    marg = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    ok, residual, point = feasible_point(cells, marg)
    assert ok
    assert residual <= 1e-9
    A, b = _cell_matrix(cells, marg)
    assert np.abs(A @ point - b).max() <= 1e-9


def test_feasible_point_detects_blocked_flow():
    # Row 0 carries 0.7 but can only reach column 1 with capacity 0.3.
    cells = grid_cells(2, 2)
    marg = [np.array([0.7, 0.3]), np.array([0.7, 0.3])]
    ok, residual, point = feasible_point(cells, marg, forbidden=[(0, 0)])
    assert not ok
    assert residual > 1e-6
    assert_maximum_flow(cells, marg, [(0, 0)], point, residual)


def test_feasible_point_everything_forbidden():
    cells = grid_cells(1, 1)
    marg = [np.array([1.0]), np.array([1.0])]
    ok, residual, _ = feasible_point(cells, marg, forbidden=[(0, 0)])
    assert not ok
    assert residual == pytest.approx(2.0)


# -- entropy maximization ----------------------------------------------------


def zadeh_cells(alpha1, gamma1, beta2, gamma2):
    """Axis 0 focals (a, c, top), axis 1 focals (b, c, top); the meets
    a&b, a&c and c&b are empty."""
    cells = grid_cells(3, 3)
    marginals = [
        np.array([alpha1, gamma1, 1.0 - alpha1 - gamma1]),
        np.array([beta2, gamma2, 1.0 - beta2 - gamma2]),
    ]
    forbidden = [(0, 0), (0, 1), (1, 0)]
    return cells, marginals, forbidden


def test_maxent_matches_closed_form():
    cells, marginals, forbidden = zadeh_cells(0.3, 0.1, 0.3, 0.1)
    result = maxent_projected_gradient(cells, marginals, forbidden)
    assert result.feasible and result.certified
    assert result.certificate <= 1e-7
    assert result.max_marginal_residual <= 1e-8
    f = dict(zip([c for c in cells if c not in set(forbidden)], result.f))
    # theta = gamma1 * gamma2 / (1 - alpha1 - beta2) = 0.025
    assert f[(1, 1)] == pytest.approx(0.025, abs=1e-6)
    assert f[(0, 2)] == pytest.approx(0.3, abs=1e-6)
    assert f[(2, 2)] == pytest.approx(0.225, abs=1e-6)


def test_maxent_optimum_has_product_form():
    cells, marginals, forbidden = zadeh_cells(0.3, 0.1, 0.3, 0.1)
    result = maxent_projected_gradient(cells, marginals, forbidden)
    f = dict(zip([c for c in cells if c not in set(forbidden)], result.f))
    # On the support rectangle {c, top} x {c, top} the entropy optimum
    # factorizes, so the cross-ratio is 1.
    assert f[(1, 1)] * f[(2, 2)] == pytest.approx(
        f[(1, 2)] * f[(2, 1)], abs=1e-6
    )


def test_maxent_entropy_history_is_monotone():
    cells, marginals, forbidden = zadeh_cells(0.3, 0.05, 0.2, 0.15)
    result = maxent_projected_gradient(cells, marginals, forbidden)
    history = result.objective_history
    assert all(b >= a for a, b in zip(history, history[1:]))


def test_maxent_reports_infeasibility():
    cells, marginals, forbidden = zadeh_cells(0.501, 0.0, 0.501, 0.0)
    result = maxent_projected_gradient(cells, marginals, forbidden)
    assert not result.feasible
    assert result.phase1_residual > 1e-9
    assert_maximum_flow(
        cells, marginals, forbidden, result.f, result.phase1_residual
    )


def test_maxent_respects_forbidden_cells():
    cells, marginals, forbidden = zadeh_cells(0.3, 0.1, 0.3, 0.1)
    allowed = [c for c in cells if c not in set(forbidden)]
    result = maxent_projected_gradient(cells, marginals, forbidden)
    assert len(result.f) == len(allowed)
    assert result.f.min() >= 0.0


def test_quadratic_matches_closed_form():
    # With alpha = beta = 0.05 and gamma1 = gamma2 = 0.3 the surrogate
    # optimum is theta = (gamma1 + gamma2 - m_top_top_base) / 4 = 0.075.
    cells, marginals, forbidden = zadeh_cells(0.05, 0.3, 0.05, 0.3)
    result = quadratic_projected_gradient(cells, marginals, forbidden)
    assert result.feasible
    f = dict(zip([c for c in cells if c not in set(forbidden)], result.f))
    assert f[(1, 1)] == pytest.approx(0.075, abs=1e-6)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(certificate_tol=-1.0)
    config = SolverConfig(certificate_tol=1e-9)
    assert config.certificate_tol == 1e-9


def test_maxent_respects_iteration_cap():
    cells, marginals, forbidden = zadeh_cells(0.3, 0.1, 0.25, 0.15)
    config = SolverConfig(max_iterations=1)
    result = maxent_projected_gradient(cells, marginals, forbidden, config)
    assert result.iterations <= 1


def test_maxent_full_grid_with_tiny_mass_is_product_form():
    # No cell is forbidden, so the optimum is the product of the
    # marginals; the 1e-4 row mass makes the problem ill-conditioned for
    # first-order methods, which took thousands of iterations here.
    m1 = np.array([0.1684, 0.0001, 0.1696, 0.0759, 0.5860])
    m2 = np.array([0.6645, 0.0605, 0.2380, 0.0370])
    cells = grid_cells(5, 4)
    result = maxent_projected_gradient(cells, [m1, m2])
    assert result.feasible and result.certified
    assert np.abs(result.f - np.outer(m1, m2).ravel()).max() <= 1e-8
    assert result.iterations <= 50


def test_quadratic_optimum_off_part_of_the_maximal_support():
    # Cells (0, 1), (0, 2) and (1, 1) are positive in some feasible point
    # but zero at the surrogate optimum, which the Newton steps reach by
    # stopping on the boundary and re-entering cells where the optimum of
    # a face is not optimal.  Optimality: f = max(0, u_i + v_j) with
    # u = (0.28, 0.05, 0.55, 0.55) and v = (0, -0.495, -0.545).
    cells = grid_cells(4, 3)
    forbidden = [(1, 2), (3, 0)]
    marginals = [np.array([0.28, 0.05, 0.61, 0.06]),
                 np.array([0.88, 0.11, 0.01])]
    result = quadratic_projected_gradient(cells, marginals, forbidden)
    assert result.feasible and result.certified
    assert result.certificate <= 1e-12
    f = dict(zip([c for c in cells if c not in set(forbidden)], result.f))
    expected = {
        (0, 0): 0.28, (0, 1): 0.0, (0, 2): 0.0, (1, 0): 0.05, (1, 1): 0.0,
        (2, 0): 0.55, (2, 1): 0.055, (2, 2): 0.005, (3, 1): 0.055,
        (3, 2): 0.005,
    }
    for cell, value in expected.items():
        assert f[cell] == pytest.approx(value, abs=1e-12)
