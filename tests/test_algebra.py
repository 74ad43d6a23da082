"""Algebra construction, parsing, lattice laws and canonical labels."""

import pytest
from hypothesis import given, settings, strategies as st

import emrfuse.algebra as algebra_mod
from emrfuse import (
    AlgebraError,
    LatticeExplosionError,
    MixedAlgebraError,
    ParseError,
    Proposition,
    build_algebra,
    canonical_label,
    is_sub,
    join,
    meet,
    parse_expression,
    powerset_algebra,
)
from emrfuse.cli import load_model


def brute_force_bits(algebra, text):
    """Reference parse: evaluate the expression on every minterm of the
    ambient Boolean algebra and collect the surviving satisfying ones."""
    names = list(algebra.atoms)
    bits = 0
    for k in range(1 << len(names)):
        env = {name: bool(k >> i & 1) for i, name in enumerate(names)}
        env["bot"] = False
        env["top"] = True
        if eval(text, {"__builtins__": {}}, env):
            bits |= 1 << k
    return bits & algebra.surviving


# -- cardinalities -----------------------------------------------------------


def test_free_algebra_has_20_elements(free_abc):
    assert len(free_abc) == 20


def test_free_five_atom_algebra_has_dedekind_many_elements():
    # The free distributive lattice on 5 generators plus bot and top has
    # the Dedekind number M(5) = 7581 elements.
    assert len(build_algebra(list("abcde"))) == 7581


def test_powerset_algebra_has_8_elements(powerset_abc):
    assert len(powerset_abc) == 8


def test_overlap_algebra_has_12_elements(overlap_abc):
    assert len(overlap_abc) == 12


def test_binary_frame_has_4_elements(binary):
    assert len(binary) == 4


# -- parsing -----------------------------------------------------------------


@pytest.mark.parametrize("text", [
    "a", "b", "c", "bot", "top", "a&b", "a|b", "(a&b)|c", "a&(b|c)",
    "a & b & c", "((a))", "a|b|c", "(a|b)&(a|c)",
])
def test_parse_matches_brute_force(free_abc, text):
    assert free_abc.parse(text).bits == brute_force_bits(free_abc, text)


def test_parse_respects_constraints(powerset_abc):
    assert powerset_abc.parse("a&b").is_bot
    assert powerset_abc.parse("a|b|c").is_top


@pytest.mark.parametrize("text", ["", "a &", "& a", "a b", "(a", "a)",
                                  "a ! b", "a | | b"])
def test_parse_errors(free_abc, text):
    with pytest.raises(ParseError):
        free_abc.parse(text)


def test_parse_unknown_atom(free_abc):
    with pytest.raises(AlgebraError):
        free_abc.parse("d")


def test_parse_error_carries_position(free_abc):
    with pytest.raises(ParseError) as err:
        free_abc.parse("a & & b")
    assert err.value.position == 4


def test_parse_expression_function(free_abc):
    prop = parse_expression("a&b", free_abc)
    assert prop == free_abc.parse("a&b")


# -- lattice operations ------------------------------------------------------


def test_meet_join_basics(free_abc):
    a, b = free_abc.atom("a"), free_abc.atom("b")
    assert meet(a, b) == free_abc.parse("a&b")
    assert join(a, b) == free_abc.parse("a|b")
    assert (a & b) == meet(a, b)
    assert (a | b) == join(a, b)
    assert is_sub(meet(a, b), a)
    assert is_sub(a, join(a, b))
    assert not is_sub(a, b)


def test_constraint_merges_meets(overlap_abc):
    assert overlap_abc.parse("a&b") == overlap_abc.parse("a&c")
    # distributivity then collapses a&(b|c) onto a&b.
    assert overlap_abc.parse("a&(b|c)") == overlap_abc.parse("a&b")


def test_closure_is_complete(free_abc, powerset_abc, overlap_abc):
    for algebra in (free_abc, powerset_abc, overlap_abc):
        for phi in algebra.lattice:
            for psi in algebra.lattice:
                assert meet(phi, psi) in algebra
                assert join(phi, psi) in algebra


def test_bot_top_are_members(free_abc):
    assert free_abc.bot in free_abc
    assert free_abc.top in free_abc
    assert free_abc.bot.is_bot
    assert free_abc.top.is_top


def test_free_algebra_atom_join_is_not_top(free_abc):
    # Without constraints the disjunction of the atoms stays strictly
    # below top.
    assert not free_abc.parse("a|b|c").is_top


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lattice_laws(free_abc, overlap_abc, data):
    algebra = data.draw(st.sampled_from([free_abc, overlap_abc]))
    props = st.sampled_from(algebra.lattice)
    phi, psi, eta = data.draw(props), data.draw(props), data.draw(props)
    assert meet(phi, psi) == meet(psi, phi)
    assert join(phi, psi) == join(psi, phi)
    assert meet(phi, meet(psi, eta)) == meet(meet(phi, psi), eta)
    assert join(phi, join(psi, eta)) == join(join(phi, psi), eta)
    assert meet(phi, phi) == phi
    assert join(phi, phi) == phi
    assert meet(phi, join(phi, psi)) == phi
    assert join(phi, meet(phi, psi)) == phi
    assert meet(phi, join(psi, eta)) == join(meet(phi, psi), meet(phi, eta))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_is_sub_is_a_partial_order(powerset_abc, data):
    props = st.sampled_from(powerset_abc.lattice)
    phi, psi, eta = data.draw(props), data.draw(props), data.draw(props)
    assert is_sub(phi, phi)
    if is_sub(phi, psi) and is_sub(psi, phi):
        assert phi == psi
    if is_sub(phi, psi) and is_sub(psi, eta):
        assert is_sub(phi, eta)


# -- insulation --------------------------------------------------------------


def test_insulation(free_abc, overlap_abc, powerset_abc, binary):
    assert free_abc.is_insulated
    assert overlap_abc.is_insulated
    assert not powerset_abc.is_insulated
    assert not binary.is_insulated


# -- canonical labels --------------------------------------------------------


def test_label_round_trip(free_abc, powerset_abc, overlap_abc, binary):
    for algebra in (free_abc, powerset_abc, overlap_abc, binary):
        for prop in algebra.lattice:
            label = algebra.label(prop)
            assert algebra.parse(label) == prop


def test_special_labels(free_abc):
    assert canonical_label(free_abc.bot) == "bot"
    assert canonical_label(free_abc.top) == "top"
    assert canonical_label(free_abc.atom("a")) == "a"
    assert canonical_label(free_abc.parse("a&b")) == "a&b"


def test_labels_are_deterministic(powerset_abc):
    first = [powerset_abc.label(p) for p in powerset_abc.lattice]
    second = [powerset_abc.label(p) for p in powerset_abc.lattice]
    assert first == second


# -- construction errors and warnings ----------------------------------------


def test_atom_name_validation():
    with pytest.raises(AlgebraError):
        build_algebra([])
    with pytest.raises(AlgebraError):
        build_algebra(["a", "a"])
    with pytest.raises(AlgebraError):
        build_algebra(["bot"])
    with pytest.raises(AlgebraError):
        build_algebra(["2bad"])
    with pytest.raises(AlgebraError):
        build_algebra([f"x{i}" for i in range(13)])


def test_constraint_validation():
    with pytest.raises(AlgebraError):
        build_algebra(["a"], ["a"])
    with pytest.raises(AlgebraError):
        build_algebra(["a"], ["a = b = c"])


def test_atom_forced_to_bot_warns():
    algebra = build_algebra(["a", "b"], ["a = bot"])
    assert algebra.warnings
    assert algebra.parse("a").is_bot


@pytest.mark.parametrize(
    "fixture", ["free_abc", "powerset_abc", "overlap_abc", "binary"]
)
def test_atoms_join_is_the_parsed_disjunction(request, fixture):
    algebra = request.getfixturevalue(fixture)
    assert algebra.atoms_join == algebra.parse("|".join(algebra.atoms))
    assert algebra.atoms_join in algebra


def test_atoms_join_on_shipped_models(models_dir):
    paths = sorted(models_dir.glob("*.yaml"))
    assert len(paths) == 7
    for path in paths:
        algebra = load_model(str(path)).algebra
        assert algebra.atoms_join == algebra.parse("|".join(algebra.atoms)), path


def test_lattice_explosion_guard(monkeypatch):
    monkeypatch.setattr(algebra_mod, "MAX_LATTICE", 10)
    with pytest.raises(LatticeExplosionError):
        build_algebra(["a", "b", "c"])


def test_mixed_algebra_rejected(free_abc, powerset_abc):
    with pytest.raises(MixedAlgebraError):
        meet(free_abc.atom("a"), powerset_abc.atom("a"))
    with pytest.raises(MixedAlgebraError):
        powerset_abc.label(free_abc.atom("a"))


def test_proposition_identity_is_per_algebra(free_abc):
    other = build_algebra(["a", "b", "c"])
    assert free_abc.atom("a") != other.atom("a")
    assert free_abc.atom("a") == Proposition(free_abc, free_abc.atom("a").bits)
