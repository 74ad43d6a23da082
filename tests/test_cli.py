"""Command-line interface: subcommands, reports, exit codes."""

import itertools
import math

import pytest
import yaml

from emrfuse import cli
from emrfuse.cli import CliError, load_model, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- model loading -----------------------------------------------------------


def test_load_model(models_dir):
    model = load_model(str(models_dir / "powerset_abc.yaml"))
    assert len(model.algebra) == 8
    assert set(model.sources) == {"s1", "s2"}


def test_load_model_missing_file(tmp_path):
    with pytest.raises(CliError):
        load_model(str(tmp_path / "nope.yaml"))


def test_load_model_undecodable_file(capsys, tmp_path):
    path = tmp_path / "binary.yaml"
    path.write_bytes(b"atoms: [a, b]\n\xff\n")
    with pytest.raises(CliError, match="cannot read model file"):
        load_model(str(path))
    assert main(["check", str(path), "--sources", "s1,s2"]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read model file: ")


def test_load_model_bad_masses(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "atoms: [a, b]\nsources:\n  - name: s1\n    masses: {a: 0.4}\n"
    )
    with pytest.raises(CliError, match="s1"):
        load_model(str(path))
    model = load_model(str(path), renormalize=True)
    assert model.sources["s1"].mass(model.algebra.parse("a")) == 1.0


def test_load_model_malformed_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("atoms: [a, b\nsources: []\n")
    with pytest.raises(CliError, match="not valid YAML") as raised:
        load_model(str(path))
    # The message is the pure-Python loader's, whichever loader parsed.
    with open(path) as handle, pytest.raises(yaml.YAMLError) as expected:
        yaml.safe_load(handle)
    assert str(raised.value) == f"model file is not valid YAML: {expected.value}"


def test_shipped_models_load_alike_under_both_loaders(models_dir):
    paths = sorted(models_dir.glob("*.yaml"))
    assert len(paths) == 7
    for path in paths:
        with open(path) as handle:
            slow = yaml.load(handle, Loader=yaml.SafeLoader)
        with open(path) as handle:
            fast = yaml.load(handle, Loader=cli._YAML_LOADER)
        assert fast == slow and repr(fast) == repr(slow), path


def test_load_model_uses_libyaml_when_built_with_it(monkeypatch, models_dir):
    loaders = []
    real_load = yaml.load

    def spy(stream, Loader):
        loaders.append(Loader)
        return real_load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    load_model(str(models_dir / "powerset_abc.yaml"))
    if yaml.__with_libyaml__:
        assert loaders == [yaml.CSafeLoader]
    else:
        assert loaders == [yaml.SafeLoader]


# -- algebra subcommand ------------------------------------------------------


@pytest.mark.parametrize("name, count", [
    ("free_abc", 20), ("powerset_abc", 8), ("overlap_abc", 12),
    ("binary_frame", 4),
])
def test_algebra_counts(capsys, models_dir, name, count):
    code, out, _ = run(capsys, "algebra", str(models_dir / f"{name}.yaml"))
    assert code == 0
    assert out.splitlines()[0] == f"{count} elements"
    assert "bot" in out and "top" in out


def test_algebra_insulation_flag(capsys, models_dir):
    _, out, _ = run(
        capsys, "algebra", str(models_dir / "free_abc.yaml"),
        "--check-insulation",
    )
    assert "insulation: true" in out
    _, out, _ = run(
        capsys, "algebra", str(models_dir / "powerset_abc.yaml"),
        "--check-insulation",
    )
    assert "insulation: false" in out


# -- fuse subcommand ---------------------------------------------------------


def test_fuse_emr_success(capsys, models_dir):
    code, out, _ = run(
        capsys, "fuse", str(models_dir / "powerset_abc.yaml"),
        "--rule", "emr", "--sources", "s1,s2",
    )
    assert code == 0
    assert "status: fused" in out
    assert "certified: true" in out


def test_fuse_emr_rejection_exit_code(capsys, models_dir):
    code, out, _ = run(
        capsys, "fuse", str(models_dir / "zadeh_classic.yaml"),
        "--rule", "emr", "--sources", "s1,s2",
    )
    assert code == 2
    assert "status: rejected" in out
    assert "violated_family" in out


def test_fuse_tbm_keeps_bot(capsys, models_dir):
    code, out, _ = run(
        capsys, "fuse", str(models_dir / "zadeh_classic.yaml"),
        "--rule", "tbm", "--sources", "s1,s2",
    )
    assert code == 0
    assert '- label: "bot"' in out


def test_fuse_beliefs_table(capsys, models_dir):
    code, out, _ = run(
        capsys, "fuse", str(models_dir / "powerset_abc.yaml"),
        "--rule", "dempster", "--sources", "s1,s2", "--beliefs",
    )
    assert code == 0
    assert "beliefs:" in out
    assert '"top": 1' in out


def test_fuse_writes_report_file(capsys, models_dir, tmp_path):
    out_path = tmp_path / "report.yaml"
    code, out, _ = run(
        capsys, "fuse", str(models_dir / "powerset_abc.yaml"),
        "--rule", "emr", "--sources", "s1,s2", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert "status: fused" in out_path.read_text()


def test_fuse_is_deterministic(capsys, models_dir):
    args = (
        "fuse", str(models_dir / "comparison.yaml"),
        "--rule", "emr", "--sources", "s1,s2",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_fuse_free_rule_on_non_insulated_algebra(capsys, models_dir):
    code, _, err = run(
        capsys, "fuse", str(models_dir / "powerset_abc.yaml"),
        "--rule", "free", "--sources", "s1,s2",
    )
    assert code == 1
    assert "error:" in err


def test_fuse_free_rule_on_insulated_algebra(capsys, models_dir):
    code, out, _ = run(
        capsys, "fuse", str(models_dir / "free_abc.yaml"),
        "--rule", "free", "--sources", "s1,s2",
    )
    assert code == 0
    assert "status: fused" in out


def test_fuse_unknown_rule(capsys, models_dir):
    code, _, err = run(
        capsys, "fuse", str(models_dir / "powerset_abc.yaml"),
        "--rule", "median", "--sources", "s1,s2",
    )
    assert code == 1
    assert "unknown rule" in err


def test_fuse_unknown_source(capsys, models_dir):
    code, _, err = run(
        capsys, "fuse", str(models_dir / "powerset_abc.yaml"),
        "--rule", "emr", "--sources", "s1,s9",
    )
    assert code == 1
    assert "unknown source" in err


def test_fuse_requires_two_sources(capsys, models_dir):
    code, _, err = run(
        capsys, "fuse", str(models_dir / "powerset_abc.yaml"),
        "--rule", "emr", "--sources", "s1",
    )
    assert code == 1
    assert "two sources" in err


def test_fuse_three_sources(capsys, models_dir):
    code, out, _ = run(
        capsys, "fuse", str(models_dir / "binary_frame.yaml"),
        "--rule", "emr", "--sources", "s1,s2,s3",
    )
    assert code == 0
    assert "status: fused" in out


def test_fuse_emr_approx_is_simultaneous(capsys, models_dir):
    # Fused pairwise in the order s1, s2, s3 the surrogate rejects; the
    # one joint problem over all three sources has a single solution,
    # two cells of 0.5, whatever the order of the sources.
    model = str(models_dir / "binary_frame.yaml")
    for order in itertools.permutations(["s1", "s2", "s3"]):
        code, out, _ = run(
            capsys, "fuse", model, "--rule", "emr-approx",
            "--sources", ",".join(order),
        )
        assert code == 0, order
        assert out.count("mass: 0.5\n") == 2
        assert 'label: "a"' in out and 'label: "na"' in out
        assert f"entropy: {math.log(2):.12g}" in out


def test_fuse_accepts_solver_flags(capsys, models_dir):
    code, out, _ = run(
        capsys, "fuse", str(models_dir / "powerset_abc.yaml"),
        "--rule", "emr", "--sources", "s1,s2", "--tol", "1e-3",
        "--max-iter", "5",
    )
    assert code == 0
    assert "status: fused" in out


# -- compare subcommand ------------------------------------------------------


def test_compare_table(capsys, models_dir):
    code, out, _ = run(
        capsys, "compare", str(models_dir / "comparison.yaml"),
        "--rules", "dempster,emr", "--sources", "s1,s2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("proposition")
    assert "dempster" in lines[0] and "emr" in lines[0]
    a_row = next(line for line in lines if line.startswith("a "))
    assert "0.391304" in a_row
    assert "0.4108" in a_row


def test_compare_shows_rejection(capsys, models_dir):
    code, out, _ = run(
        capsys, "compare", str(models_dir / "zadeh_classic.yaml"),
        "--rules", "dempster,emr", "--sources", "s1,s2",
    )
    assert code == 0
    assert "REJECTED" in out


# -- check subcommand --------------------------------------------------------


def test_check_feasible(capsys, models_dir):
    code, out, _ = run(
        capsys, "check", str(models_dir / "zadeh_relaxed.yaml"),
        "--sources", "s1,s2",
    )
    assert code == 0
    assert "feasible: true" in out


def test_check_infeasible_with_witness(capsys, models_dir):
    code, out, _ = run(
        capsys, "check", str(models_dir / "zadeh_classic.yaml"),
        "--sources", "s1,s2",
    )
    assert code == 2
    assert "feasible: false" in out
    assert "violated_family" in out


def test_check_rejects_solver_flags(capsys, models_dir):
    # check runs phase I only, so it takes no solver settings.
    model = str(models_dir / "zadeh_relaxed.yaml")
    for flag in ("--tol", "--max-iter"):
        with pytest.raises(SystemExit) as exc:
            main(["check", model, "--sources", "s1,s2", flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_check_and_fuse_report_the_same_family(capsys, models_dir):
    model = str(models_dir / "zadeh_classic.yaml")
    _, checked, _ = run(capsys, "check", model, "--sources", "s1,s2")
    _, fused, _ = run(
        capsys, "fuse", model, "--rule", "emr", "--sources", "s1,s2"
    )
    assert "violated_family: [a, b, c]" in checked
    assert 'violated_family: ["a", "b", "c"]' in fused


def test_check_reports_witness_outside_the_focals(capsys, tmp_path):
    path = tmp_path / "overlapping.yaml"
    path.write_text(
        "atoms: [a, b, c, d]\n"
        "constraints: [a&b = bot, a&c = bot, a&d = bot, b&c = bot, "
        "b&d = bot, c&d = bot, a|b|c|d = top]\n"
        "sources:\n"
        "  - {name: s1, masses: {a|b: 0.56, d: 0.44}}\n"
        "  - {name: s2, masses: {a|b|d: 0.13, a|b: 0.31, a|c: 0.56}}\n"
    )
    code, out, _ = run(capsys, "check", str(path), "--sources", "s1,s2")
    assert code == 2
    assert "violated_family: [d, a|b|c]" in out


# -- repeated calls in one process -------------------------------------------


def test_repeated_calls_leak_no_parser_state(capsys, models_dir):
    # main() reuses one parser, so an option given to one call must not
    # reach the next; --tol changes what fuse prints on this model.
    model = str(models_dir / "powerset_abc.yaml")
    check = ["check", model, "--sources", "s1,s2"]
    fuse = ["fuse", model, "--rule", "emr", "--sources", "s1,s2"]
    first_check = run(capsys, *check)
    first_fuse = run(capsys, *fuse)
    tight_fuse = run(capsys, *fuse, "--tol", "1e-3")
    assert tight_fuse[0] == 0 and tight_fuse != first_fuse
    with pytest.raises(SystemExit) as exc:
        main([*check, "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert run(capsys, *fuse) == first_fuse
    assert run(capsys, *check) == first_check
    assert run(capsys, *fuse, "--tol", "1e-3") == tight_fuse
