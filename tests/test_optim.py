"""Linear programming kernel and the entropy/quadratic maximization loops."""

import numpy as np
import pytest

from emrfuse import SolverConfig
from emrfuse.optim import (
    _cell_matrix,
    _Simplex,
    feasible_point,
    maxent_projected_gradient,
    quadratic_projected_gradient,
)


def grid_cells(rows, cols):
    return [(i, j) for i in range(rows) for j in range(cols)]


def assert_maximum_flow(cells, marginals, point, residual):
    """An infeasible phase I over two unit marginals ends on a maximum
    flow: nonnegative, within both marginals, of total 1 - residual / 2."""
    A, b = _cell_matrix(cells, marginals)
    assert point.min() >= 0.0
    assert (A @ point <= b + 1e-12).all()
    assert point.sum() == pytest.approx(1.0 - residual / 2, abs=1e-12)


# -- linear programming ------------------------------------------------------


def test_lp_solve_simple_optimum():
    c = np.array([3.0, 1.0])
    simplex = _Simplex(np.array([[1.0, 1.0]]), np.array([1.0]))
    status, x = simplex.optimize(c)
    assert status == "optimal"
    assert c @ x == pytest.approx(3.0, abs=1e-12)
    assert x == pytest.approx([1.0, 0.0], abs=1e-12)


def test_lp_solve_detects_infeasibility():
    simplex = _Simplex(np.array([[0.0]]), np.array([1.0]))
    assert simplex.phase1_residual > 1e-9


def test_lp_solve_detects_unboundedness():
    simplex = _Simplex(np.array([[0.0, 1.0]]), np.array([1.0]))
    status, _ = simplex.optimize(np.array([1.0, 0.0]))
    assert status == "unbounded"


def test_simplex_duals_satisfy_complementary_slackness():
    cells = grid_cells(3, 3)
    marg = [np.array([0.3, 0.3, 0.4]), np.array([0.2, 0.5, 0.3])]
    A, b = _cell_matrix(cells, marg)
    rng = np.random.default_rng(7)
    c = rng.uniform(-1.0, 1.0, len(cells))
    simplex = _Simplex(A, b)
    status, x = simplex.optimize(c)
    assert status == "optimal"
    # Dual prices of the equality rows for the optimal basis.
    basis = simplex.A_full[:, simplex.basis]
    c_ext = np.concatenate([c, np.zeros(simplex.A_full.shape[1] - simplex.n)])
    y = np.linalg.solve(basis.T, c_ext[simplex.basis])
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
    cells = [(0, 1), (1, 0), (1, 1)]
    marg = [np.array([0.7, 0.3]), np.array([0.7, 0.3])]
    ok, residual, point = feasible_point(cells, marg)
    assert not ok
    assert residual > 1e-6
    assert_maximum_flow(cells, marg, point, residual)


def test_feasible_point_everything_forbidden():
    # No allowed cell: phase I of the 2 x 0 system leaves both unit
    # marginals unmet.
    marg = [np.array([1.0]), np.array([1.0])]
    ok, residual, _ = feasible_point([], marg)
    assert not ok
    assert residual == pytest.approx(2.0)


# -- entropy maximization ----------------------------------------------------


ZADEH_FORBIDDEN = [(0, 0), (0, 1), (1, 0)]


def zadeh_cells(alpha1, gamma1, beta2, gamma2):
    """Axis 0 focals (a, c, top), axis 1 focals (b, c, top); the meets
    a&b, a&c and c&b are empty, so the allowed cells leave them out."""
    cells = [c for c in grid_cells(3, 3) if c not in ZADEH_FORBIDDEN]
    marginals = [
        np.array([alpha1, gamma1, 1.0 - alpha1 - gamma1]),
        np.array([beta2, gamma2, 1.0 - beta2 - gamma2]),
    ]
    return cells, marginals


def test_maxent_matches_closed_form():
    cells, marginals = zadeh_cells(0.3, 0.1, 0.3, 0.1)
    result = maxent_projected_gradient(cells, marginals)
    assert result.feasible and result.certified
    assert result.certificate <= 1e-7
    assert result.max_marginal_residual <= 1e-8
    f = dict(zip(cells, result.f))
    # theta = gamma1 * gamma2 / (1 - alpha1 - beta2) = 0.025
    assert f[(1, 1)] == pytest.approx(0.025, abs=1e-6)
    assert f[(0, 2)] == pytest.approx(0.3, abs=1e-6)
    assert f[(2, 2)] == pytest.approx(0.225, abs=1e-6)


def test_maxent_optimum_has_product_form():
    cells, marginals = zadeh_cells(0.3, 0.1, 0.3, 0.1)
    result = maxent_projected_gradient(cells, marginals)
    f = dict(zip(cells, result.f))
    # On the support rectangle {c, top} x {c, top} the entropy optimum
    # factorizes, so the cross-ratio is 1.
    assert f[(1, 1)] * f[(2, 2)] == pytest.approx(
        f[(1, 2)] * f[(2, 1)], abs=1e-6
    )


def test_maxent_entropy_history_is_monotone():
    cells, marginals = zadeh_cells(0.3, 0.05, 0.2, 0.15)
    result = maxent_projected_gradient(cells, marginals)
    history = result.objective_history
    assert all(b >= a for a, b in zip(history, history[1:]))


def test_maxent_reports_infeasibility():
    cells, marginals = zadeh_cells(0.501, 0.0, 0.501, 0.0)
    result = maxent_projected_gradient(cells, marginals)
    assert not result.feasible
    assert result.phase1_residual > 1e-9
    assert_maximum_flow(cells, marginals, result.f, result.phase1_residual)


def test_maxent_respects_forbidden_cells():
    cells, marginals = zadeh_cells(0.3, 0.1, 0.3, 0.1)
    result = maxent_projected_gradient(cells, marginals)
    assert not set(ZADEH_FORBIDDEN) & set(cells)
    assert len(result.f) == len(cells) == 6
    assert result.f.min() >= 0.0


def test_quadratic_matches_closed_form():
    # With alpha = beta = 0.05 and gamma1 = gamma2 = 0.3 the surrogate
    # optimum is theta = (gamma1 + gamma2 - m_top_top_base) / 4 = 0.075.
    cells, marginals = zadeh_cells(0.05, 0.3, 0.05, 0.3)
    result = quadratic_projected_gradient(cells, marginals)
    assert result.feasible
    f = dict(zip(cells, result.f))
    assert f[(1, 1)] == pytest.approx(0.075, abs=1e-6)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(certificate_tol=-1.0)
    config = SolverConfig(certificate_tol=1e-9)
    assert config.certificate_tol == 1e-9


def test_maxent_respects_iteration_cap():
    cells, marginals = zadeh_cells(0.3, 0.1, 0.25, 0.15)
    config = SolverConfig(max_iterations=1)
    result = maxent_projected_gradient(cells, marginals, config)
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
    cells = [c for c in grid_cells(4, 3) if c not in [(1, 2), (3, 0)]]
    marginals = [np.array([0.28, 0.05, 0.61, 0.06]),
                 np.array([0.88, 0.11, 0.01])]
    result = quadratic_projected_gradient(cells, marginals)
    assert result.feasible and result.certified
    assert result.certificate <= 1e-12
    f = dict(zip(cells, result.f))
    expected = {
        (0, 0): 0.28, (0, 1): 0.0, (0, 2): 0.0, (1, 0): 0.05, (1, 1): 0.0,
        (2, 0): 0.55, (2, 1): 0.055, (2, 2): 0.005, (3, 1): 0.055,
        (3, 2): 0.005,
    }
    for cell, value in expected.items():
        assert f[cell] == pytest.approx(value, abs=1e-12)
