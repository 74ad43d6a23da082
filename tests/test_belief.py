"""Bba construction, validation, belief functions and the enhancement
bound."""

import pytest
from hypothesis import given, settings, strategies as st

from emrfuse import (
    Bba,
    BbaError,
    MixedAlgebraError,
    belief,
    emr_check,
    enhancement_bound_check,
    is_sub,
    smets_belief,
    total_ignorance,
    validate,
)


def random_bba(algebra, data, allow_bot=False):
    pool = [p for p in algebra.lattice if allow_bot or not p.is_bot]
    focals = data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)
    )
    weights = data.draw(
        st.lists(
            st.floats(0.05, 1.0), min_size=len(focals), max_size=len(focals)
        )
    )
    total = sum(weights)
    return Bba(
        algebra,
        {p: w / total for p, w in zip(focals, weights)},
        coherent=not allow_bot,
    )


# -- construction and validation ---------------------------------------------


def test_from_masses_string_keys(powerset_abc):
    bba = Bba.from_masses(powerset_abc, {"a": 0.4, "b|c": 0.6})
    assert bba.mass(powerset_abc.parse("a")) == 0.4
    assert bba.mass(powerset_abc.parse("b|c")) == 0.6
    assert bba.mass(powerset_abc.parse("c")) == 0.0


def test_from_masses_merges_duplicate_keys(powerset_abc):
    bba = Bba.from_masses(powerset_abc, {"a|b": 0.5, "b|a": 0.5})
    assert bba.mass(powerset_abc.parse("a|b")) == 1.0


def test_from_masses_rejects_bad_sum(powerset_abc):
    with pytest.raises(BbaError):
        Bba.from_masses(powerset_abc, {"a": 0.5, "b": 0.4})


def test_from_masses_explicit_renormalization(powerset_abc):
    bba = Bba.from_masses(powerset_abc, {"a": 1.0, "b": 3.0}, renormalize=True)
    assert bba.mass(powerset_abc.parse("a")) == pytest.approx(0.25)
    assert bba.mass(powerset_abc.parse("b")) == pytest.approx(0.75)
    with pytest.raises(BbaError):
        Bba.from_masses(powerset_abc, {"a": 0.0}, renormalize=True)


def test_from_masses_rejects_negative(powerset_abc):
    with pytest.raises(BbaError):
        Bba.from_masses(powerset_abc, {"a": 1.2, "b": -0.2})


def test_coherent_bba_rejects_bot_mass(powerset_abc):
    with pytest.raises(BbaError):
        Bba.from_masses(powerset_abc, {"bot": 0.3, "a": 0.7})
    tbm = Bba.from_masses(powerset_abc, {"bot": 0.3, "a": 0.7}, coherent=False)
    assert tbm.mass(powerset_abc.bot) == 0.3


def test_validate_reports_instead_of_raising(powerset_abc):
    report = validate(Bba(powerset_abc, {powerset_abc.parse("a"): 0.4}))
    assert not report.ok
    assert any("sum" in e for e in report.errors)


def test_validate_warns_on_uncovered_frame(free_abc):
    # In the free algebra a|b|c is not top, so mass on top escapes it.
    bba = Bba.from_masses(free_abc, {"top": 1.0})
    assert validate(bba).ok
    assert validate(bba).warnings
    covered = Bba.from_masses(free_abc, {"a": 1.0})
    assert not validate(covered).warnings


def test_focals_are_in_lattice_order(powerset_abc):
    bba = Bba.from_masses(powerset_abc, {"a|b|c": 0.2, "a": 0.5, "b|c": 0.3})
    labels = [powerset_abc.label(p) for p in bba.focals]
    assert labels == ["a", "b|c", "top"]


# -- belief functions --------------------------------------------------------


def test_belief_hand_example(powerset_abc):
    bba = Bba.from_masses(
        powerset_abc, {"a": 0.5, "b": 0.2, "a|b": 0.1, "a|b|c": 0.2}
    )
    assert belief(bba, powerset_abc.parse("a")) == pytest.approx(0.5)
    assert belief(bba, powerset_abc.parse("a|b")) == pytest.approx(0.8)
    assert belief(bba, powerset_abc.parse("c")) == pytest.approx(0.0)
    assert belief(bba, powerset_abc.top) == pytest.approx(1.0)


def test_belief_includes_bot_mass_smets_excludes_it(powerset_abc):
    tbm = Bba.from_masses(
        powerset_abc, {"bot": 0.3, "a": 0.7}, coherent=False
    )
    a = powerset_abc.parse("a")
    assert belief(tbm, a) == pytest.approx(1.0)
    assert smets_belief(tbm, a) == pytest.approx(0.7)
    assert belief(tbm, powerset_abc.bot) == pytest.approx(0.3)
    assert smets_belief(tbm, powerset_abc.bot) == 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_belief_is_monotone(powerset_abc, data):
    bba = random_bba(powerset_abc, data)
    props = st.sampled_from(powerset_abc.lattice)
    phi, psi = data.draw(props), data.draw(props)
    if is_sub(phi, psi):
        assert belief(bba, phi) <= belief(bba, psi) + 1e-12


def test_total_ignorance(powerset_abc):
    nu = total_ignorance(powerset_abc)
    assert nu.mass(powerset_abc.top) == 1.0
    assert validate(nu).ok
    for prop in powerset_abc.lattice:
        expected = 1.0 if prop.is_top else 0.0
        assert belief(nu, prop) == expected


def test_belief_requires_member_of_same_algebra(powerset_abc, free_abc):
    bba = total_ignorance(powerset_abc)
    with pytest.raises(MixedAlgebraError):
        belief(bba, free_abc.atom("a"))


# -- enhancement bound -------------------------------------------------------


def test_enhancement_bound_detects_impossible_fusion(binary):
    m12 = Bba.from_masses(binary, {"a": 0.75, "top": 0.25})
    m3 = Bba.from_masses(binary, {"na": 0.5, "top": 0.5})
    family = [binary.parse("a"), binary.parse("na")]
    assert not enhancement_bound_check(m12, m3, family)


def test_enhancement_bound_passes_compatible_sources(binary):
    m1 = Bba.from_masses(binary, {"a": 0.5, "top": 0.5})
    m3 = Bba.from_masses(binary, {"na": 0.5, "top": 0.5})
    family = [binary.parse("a"), binary.parse("na")]
    assert enhancement_bound_check(m1, m3, family)


def test_enhancement_bound_requires_disjoint_family(powerset_abc):
    bba = total_ignorance(powerset_abc)
    family = [powerset_abc.parse("a|b"), powerset_abc.parse("b|c")]
    with pytest.raises(BbaError):
        enhancement_bound_check(bba, bba, family)


def test_find_enhancement_violation(binary):
    # The rejection witness read off the phase-I maximum flow.
    m12 = Bba.from_masses(binary, {"a": 0.75, "top": 0.25})
    m3 = Bba.from_masses(binary, {"na": 0.5, "top": 0.5})
    _, rejection = emr_check([m12, m3])
    family = rejection.violated_family
    assert family is not None
    labels = sorted(binary.label(p) for p in family)
    assert labels == ["a", "na"]
    assert not enhancement_bound_check(m12, m3, family)
    m1 = Bba.from_masses(binary, {"a": 0.5, "top": 0.5})
    assert emr_check([m1, m3])[1] is None
