"""Entropy-maximizing fusion: solver, closed-form oracle, IPF oracle,
feasibility analysis and the quadratic approximation."""

import numpy as np
import pytest

from emrfuse import (
    Bba,
    CellCapError,
    EmrError,
    MixedAlgebraError,
    SolverConfig,
    belief,
    build_algebra,
    emr_check,
    emr_feasible,
    emr_fuse,
    emr_fuse_approx,
    emr_fuse_n,
    enhancement_bound_check,
    ipf_oracle,
    powerset_algebra,
    total_ignorance,
    zadeh_family_bbas,
    zadeh_family_oracle,
)


def mass_table(outcome):
    algebra = outcome.bba.algebra
    return {
        algebra.label(p): v for p, v in outcome.bba.masses.items() if v != 0.0
    }


# -- closed-form oracle ------------------------------------------------------


@pytest.mark.parametrize("params, expected", [
    ((0.499, 0.0, 0.499, 0.0), {"a": 0.499, "b": 0.499, "top": 0.002}),
    ((0.3, 0.1, 0.3, 0.1), {"a": 0.3, "b": 0.3, "c": 0.175, "top": 0.225}),
    ((0.3, 0.05, 0.3, 0.05),
     {"a": 0.3, "b": 0.3, "c": 0.09375, "top": 0.30625}),
    ((0.3, 0.01, 0.3, 0.01),
     {"a": 0.3, "b": 0.3, "c": 0.01975, "top": 0.38025}),
])
def test_oracle_reference_rows(params, expected):
    outcome = zadeh_family_oracle(*params)
    assert outcome.accepted
    table = mass_table(outcome)
    assert set(table) == set(expected)
    for label, value in expected.items():
        assert table[label] == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("params", [
    (0.501, 0.0, 0.501, 0.0),
    (0.99, 0.01, 0.99, 0.01),
    (0.98, 0.01, 0.98, 0.01),
])
def test_oracle_rejections(params):
    outcome = zadeh_family_oracle(*params)
    assert not outcome.accepted
    assert outcome.rejection.phase1_residual > 0.0


def test_oracle_on_feasibility_boundary():
    # Here the theta interval degenerates to a point and the top mass
    # vanishes exactly.
    a1, g1, b2, g2 = 0.2, 0.3, 0.2, 0.6
    outcome = zadeh_family_oracle(a1, g1, b2, g2)
    assert outcome.accepted
    table = mass_table(outcome)
    assert table["c"] == pytest.approx(0.6, abs=1e-12)
    assert table.get("top", 0.0) <= 1e-12


def test_zadeh_family_validation():
    with pytest.raises(EmrError):
        zadeh_family_bbas(-0.1, 0.0, 0.5, 0.0)
    with pytest.raises(EmrError):
        zadeh_family_bbas(0.8, 0.3, 0.5, 0.0)


# -- solver vs oracle --------------------------------------------------------


@pytest.mark.parametrize("params", [
    (0.499, 0.0, 0.499, 0.0),
    (0.3, 0.1, 0.3, 0.1),
    (0.3, 0.05, 0.3, 0.05),
    (0.2, 0.25, 0.4, 0.15),
    (0.0, 0.0, 0.0, 0.0),
])
def test_solver_matches_oracle(params):
    b1, b2, algebra = zadeh_family_bbas(*params)
    solved = emr_fuse(b1, b2)
    closed = zadeh_family_oracle(*params, algebra=algebra)
    assert solved.accepted and closed.accepted
    for prop in algebra.lattice:
        assert solved.bba.mass(prop) == pytest.approx(
            closed.bba.mass(prop), abs=1e-7
        )
    assert solved.diagnostics.certified
    assert solved.diagnostics.entropy == pytest.approx(
        closed.diagnostics.entropy, abs=1e-6
    )


def test_solver_rejects_with_witness():
    b1, b2, algebra = zadeh_family_bbas(0.99, 0.01, 0.99, 0.01)
    outcome = emr_fuse(b1, b2)
    assert not outcome.accepted
    rejection = outcome.rejection
    assert rejection.phase1_residual > 1e-9
    assert rejection.violated_family is not None
    labels = set(algebra.label(p) for p in rejection.violated_family)
    assert {"a", "b"} <= labels
    assert "belief" in rejection.message


POWERSET4 = [
    "a&b = bot", "a&c = bot", "a&d = bot", "b&c = bot", "b&d = bot",
    "c&d = bot", "a|b|c|d = top",
]


def test_witness_joins_overlapping_focals():
    # No family of focal elements violates the bound here: a|b and a|c
    # overlap.  Their join a|b|c does, next to d.
    algebra = build_algebra(list("abcd"), POWERSET4)
    s1 = Bba.from_masses(algebra, {"a|b": 0.56, "d": 0.44})
    s2 = Bba.from_masses(algebra, {"a|b|d": 0.13, "a|b": 0.31, "a|c": 0.56})
    outcome = emr_fuse(s1, s2)
    assert not outcome.accepted
    family = outcome.rejection.violated_family
    assert [algebra.label(p) for p in family] == ["d", "a|b|c"]
    assert belief(s1, family[0]) == pytest.approx(0.44, abs=1e-12)
    assert belief(s2, family[1]) == pytest.approx(0.87, abs=1e-12)
    assert not enhancement_bound_check(s1, s2, family)
    assert "{d, a|b|c}" in outcome.rejection.message


def test_every_two_source_rejection_carries_a_witness():
    rng = np.random.default_rng(3)
    algebras = [
        build_algebra(["a", "na"], ["a&na = bot", "a|na = top"]),
        powerset_algebra("a", "b", "c"),
        build_algebra(["a", "b", "c"], ["a&b = a&c"]),
        build_algebra(list("abcd"), POWERSET4),
    ]

    def random_bba(algebra):
        pool = [p for p in algebra.lattice if not p.is_bot]
        size = int(rng.integers(1, min(8, len(pool)) + 1))
        picks = rng.choice(len(pool), size=size, replace=False)
        weights = rng.dirichlet(np.ones(size))
        return Bba(algebra, {pool[i]: float(w)
                             for i, w in zip(picks, weights)})

    rejected = 0
    for k in range(400):
        b1, b2 = (random_bba(algebras[k % 4]) for _ in range(2))
        outcome = emr_fuse(b1, b2)
        if outcome.accepted:
            continue
        rejected += 1
        rejection = outcome.rejection
        family = rejection.violated_family
        assert family is not None
        assert not enhancement_bound_check(b1, b2, family)
        total = sum(max(belief(b1, p), belief(b2, p)) for p in family)
        assert total >= 1.0 + rejection.phase1_residual / 2 - 1e-9
        assert emr_check([b1, b2]) == (rejection.phase1_residual, rejection)
        assert emr_fuse_approx(b1, b2).rejection == rejection
    assert rejected >= 100


def test_three_source_rejection_has_no_family(binary):
    m1 = Bba.from_masses(binary, {"a": 0.75, "top": 0.25})
    m2 = Bba.from_masses(binary, {"na": 0.5, "top": 0.5})
    outcome = emr_fuse_n([m1, m2, total_ignorance(binary)])
    assert not outcome.accepted
    assert outcome.rejection.violated_family is None
    assert "family" not in outcome.rejection.message


def test_binary_entry_point_equals_nary(powerset_abc):
    b1 = Bba.from_masses(powerset_abc, {"a": 0.4, "a|b": 0.3, "a|b|c": 0.3})
    b2 = Bba.from_masses(powerset_abc, {"b": 0.2, "a|c": 0.5, "a|b|c": 0.3})
    two = emr_fuse(b1, b2)
    n = emr_fuse_n([b1, b2])
    for prop in powerset_abc.lattice:
        assert two.bba.mass(prop) == pytest.approx(n.bba.mass(prop), abs=1e-9)


# -- structural properties ---------------------------------------------------


def test_ignorance_is_neutral(powerset_abc):
    b = Bba.from_masses(powerset_abc, {"a": 0.35, "b|c": 0.4, "a|b|c": 0.25})
    outcome = emr_fuse(b, total_ignorance(powerset_abc))
    assert outcome.accepted
    for prop in powerset_abc.lattice:
        assert outcome.bba.mass(prop) == pytest.approx(
            b.mass(prop), abs=1e-9
        )


def test_probability_like_bba_is_idempotent(powerset_abc):
    p = Bba.from_masses(powerset_abc, {"a": 0.5, "b": 0.3, "c": 0.2})
    outcome = emr_fuse(p, p)
    assert outcome.accepted
    for prop in powerset_abc.lattice:
        assert outcome.bba.mass(prop) == pytest.approx(p.mass(prop), abs=1e-9)


def test_fusion_order_dependence(binary):
    m1 = Bba.from_masses(binary, {"a": 0.5, "top": 0.5})
    m2 = Bba.from_masses(binary, {"a": 0.5, "top": 0.5})
    m3 = Bba.from_masses(binary, {"na": 0.5, "top": 0.5})
    left = emr_fuse(emr_fuse(m1, m2).bba, m3)
    assert not left.accepted
    right_inner = emr_fuse(m2, m3)
    assert right_inner.accepted
    right = emr_fuse(m1, right_inner.bba)
    assert right.accepted
    assert right.bba.mass(binary.parse("a")) == pytest.approx(0.5, abs=1e-6)
    assert right.bba.mass(binary.parse("na")) == pytest.approx(0.5, abs=1e-6)


def test_simultaneous_three_way_fusion(binary):
    m1 = Bba.from_masses(binary, {"a": 0.5, "top": 0.5})
    m2 = Bba.from_masses(binary, {"a": 0.5, "top": 0.5})
    m3 = Bba.from_masses(binary, {"na": 0.5, "top": 0.5})
    outcome = emr_fuse_n([m1, m2, m3])
    assert outcome.accepted
    assert outcome.bba.mass(binary.parse("a")) == pytest.approx(0.5, abs=1e-6)
    assert outcome.bba.mass(binary.parse("na")) == pytest.approx(
        0.5, abs=1e-6
    )


def test_belief_enhancement_on_fusion(powerset_abc):
    b1 = Bba.from_masses(powerset_abc, {"a": 0.4, "a|b": 0.3, "a|b|c": 0.3})
    b2 = Bba.from_masses(powerset_abc, {"a": 0.2, "b|c": 0.3, "a|b|c": 0.5})
    outcome = emr_fuse(b1, b2)
    assert outcome.accepted
    for prop in powerset_abc.lattice:
        floor = max(belief(b1, prop), belief(b2, prop))
        assert belief(outcome.bba, prop) >= floor - 1e-8


# -- feasibility analysis ----------------------------------------------------


def test_weakening_restores_feasibility(powerset_abc):
    # Near-contradictory sources become fusable once each keeps
    # 1 - rho of its mass as imprecision, for rho up to 1 / (1 + eps).
    eps = 0.1
    def sources(rho):
        m1 = {"a": rho * eps, "c": rho * (1 - eps), "a|b|c": 1 - rho}
        m2 = {"b": rho * eps, "c": rho * (1 - eps), "a|b|c": 1 - rho}
        return (
            Bba.from_masses(powerset_abc, {k: v for k, v in m1.items() if v}),
            Bba.from_masses(powerset_abc, {k: v for k, v in m2.items() if v}),
        )
    ok, residual = emr_feasible(sources(1.0 / (1 + eps)))
    assert ok and residual <= 1e-9
    ok, residual = emr_feasible(sources(1.0 / (1 + eps) + 1e-3))
    assert not ok and residual > 1e-9


def test_emr_feasible_requires_two_sources(powerset_abc):
    with pytest.raises(EmrError):
        emr_feasible([total_ignorance(powerset_abc)])


# -- input validation --------------------------------------------------------


def test_emr_rejects_tbm_input(powerset_abc):
    tbm = Bba.from_masses(
        powerset_abc, {"bot": 0.2, "a": 0.8}, coherent=False
    )
    with pytest.raises(EmrError, match="tbm"):
        emr_fuse(tbm, total_ignorance(powerset_abc))


def test_emr_rejects_mixed_algebras(powerset_abc, free_abc):
    with pytest.raises(MixedAlgebraError):
        emr_fuse(total_ignorance(powerset_abc), total_ignorance(free_abc))


def test_cell_cap(powerset_abc):
    b = Bba.from_masses(powerset_abc, {"a": 0.4, "b": 0.3, "c": 0.3})
    with pytest.raises(CellCapError):
        emr_fuse_n([b, b], cell_cap=4)


# -- quadratic approximation -------------------------------------------------


def test_approx_close_to_entropy_solution():
    b1, b2, algebra = zadeh_family_bbas(0.3, 0.1, 0.3, 0.1)
    exact = emr_fuse(b1, b2)
    approx = emr_fuse_approx(b1, b2)
    assert approx.accepted
    for prop in algebra.lattice:
        assert abs(approx.bba.mass(prop) - exact.bba.mass(prop)) <= 0.05


def test_approx_rejects_like_emr():
    b1, b2, _ = zadeh_family_bbas(0.99, 0.01, 0.99, 0.01)
    assert not emr_fuse_approx(b1, b2).accepted


# -- IPF oracle --------------------------------------------------------------


def test_ipf_agrees_with_solver(powerset_abc):
    b1 = Bba.from_masses(
        powerset_abc,
        {"a": 0.2, "a|b": 0.2, "a|c": 0.2, "b|c": 0.2, "a|b|c": 0.2},
    )
    solved = emr_fuse(b1, b1)
    report = ipf_oracle([b1, b1])
    assert report.converged
    assert report.residual <= 1e-10
    assert report.entropy == pytest.approx(
        solved.diagnostics.entropy, abs=1e-6
    )


def test_ipf_joint_reproduces_marginals(powerset_abc):
    b1 = Bba.from_masses(powerset_abc, {"a": 0.4, "a|b": 0.3, "a|b|c": 0.3})
    b2 = Bba.from_masses(powerset_abc, {"b": 0.2, "a|c": 0.5, "a|b|c": 0.3})
    report = ipf_oracle([b1, b2])
    assert report.converged
    joint = report.joint
    for axis, bba in enumerate((b1, b2)):
        for focal in bba.focals:
            total = sum(
                v for cell, v in joint.cells.items() if cell[axis] == focal
            )
            assert total == pytest.approx(bba.mass(focal), abs=1e-8)


def test_ipf_handles_zero_marginal_support_reduction():
    b1, b2, algebra = zadeh_family_bbas(0.499, 0.0, 0.499, 0.0)
    report = ipf_oracle([b1, b2])
    assert report.converged
    assert report.entropy == pytest.approx(
        zadeh_family_oracle(0.499, 0.0, 0.499, 0.0).diagnostics.entropy,
        abs=1e-8,
    )


def test_ipf_does_not_converge_on_infeasible_instance():
    b1, b2, _ = zadeh_family_bbas(0.6, 0.0, 0.6, 0.0)
    report = ipf_oracle([b1, b2], max_sweeps=500)
    assert not report.converged


# -- diagnostics -------------------------------------------------------------


def test_diagnostics_fields(powerset_abc):
    b1 = Bba.from_masses(powerset_abc, {"a": 0.4, "a|b": 0.3, "a|b|c": 0.3})
    b2 = Bba.from_masses(powerset_abc, {"b": 0.2, "a|c": 0.5, "a|b|c": 0.3})
    outcome = emr_fuse(b1, b2, config=SolverConfig(certificate_tol=1e-8))
    assert outcome.accepted
    d = outcome.diagnostics
    assert d.certified
    assert d.optimality_certificate <= 1e-8
    assert d.max_marginal_residual <= 1e-8
    assert d.iterations >= 1
    assert outcome.bba.mass(powerset_abc.bot) == 0.0
