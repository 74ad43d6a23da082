"""Command-line front end: YAML model files in, fusion reports out.

Exit codes: 0 on success/fusion, 2 on rejection or infeasibility, 1 on
input errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import yaml

from .algebra import AlgebraError, PreBooleanAlgebra, Proposition
from .belief import Bba, BbaError, belief
from .emr import (
    EmrError,
    FusionOutcome,
    emr_check,
    emr_fuse_approx,
    emr_fuse_n,
)
from .optim import SolverConfig
from .rules import RuleError, conjunctive, dempster_fuse, free_dsmt_fuse, tbm_fuse

RULE_NAMES = ("conjunctive", "tbm", "free", "dempster", "emr", "emr-approx")


class CliError(ValueError):
    """Input problem reported to the user with exit code 1."""


@dataclass
class Model:
    path: str
    algebra: PreBooleanAlgebra
    sources: dict[str, Bba]


def load_model(path: str, renormalize: bool = False) -> Model:
    try:
        with open(path) as handle:
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise CliError(f"cannot read model file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise CliError(f"model file is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliError("model file must be a mapping")
    atoms = raw.get("atoms")
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise CliError("'atoms' must be a list of names")
    constraints = raw.get("constraints", []) or []
    if not isinstance(constraints, list):
        raise CliError("'constraints' must be a list of 'expr = expr' strings")
    try:
        algebra = PreBooleanAlgebra(atoms, constraints)
    except AlgebraError as exc:
        raise CliError(f"invalid algebra: {exc}") from exc
    sources: dict[str, Bba] = {}
    for entry in raw.get("sources", []) or []:
        if not isinstance(entry, dict) or "name" not in entry:
            raise CliError("each source needs at least a 'name'")
        name = str(entry["name"])
        if name in sources:
            raise CliError(f"duplicate source name {name!r}")
        masses = entry.get("masses", {})
        if not isinstance(masses, dict):
            raise CliError(f"source {name!r}: 'masses' must be a mapping")
        try:
            sources[name] = Bba.from_masses(
                algebra,
                {str(k): float(v) for k, v in masses.items()},
                coherent=bool(entry.get("coherent", True)),
                renormalize=renormalize,
            )
        except (AlgebraError, BbaError, ValueError) as exc:
            raise CliError(f"source {name!r}: {exc}") from exc
    return Model(path=path, algebra=algebra, sources=sources)


def _pick_sources(model: Model, selector: str) -> list[tuple[str, Bba]]:
    names = [s.strip() for s in selector.split(",") if s.strip()]
    if len(names) < 2:
        raise CliError("at least two sources are required")
    picked = []
    for name in names:
        if name not in model.sources:
            raise CliError(f"unknown source {name!r}")
        picked.append((name, model.sources[name]))
    return picked


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _mass_lines(algebra: PreBooleanAlgebra, masses, indent: str = "") -> list[str]:
    lines = []
    for prop in sorted(masses, key=lambda p: algebra.index[p]):
        lines.append(f'{indent}- label: "{algebra.label(prop)}"')
        lines.append(f'{indent}  key: "{prop.bits:#x}"')
        lines.append(f"{indent}  mass: {_fmt(masses[prop])}")
    return lines


def _run_rule(
    rule: str, bbas: list[Bba], config: SolverConfig
) -> FusionOutcome | Bba:
    if rule == "emr":
        return emr_fuse_n(bbas, config=config)
    if rule == "emr-approx":
        return emr_fuse_approx(bbas, config=config)
    fold = {
        "conjunctive": tbm_fuse,
        "tbm": tbm_fuse,
        "free": free_dsmt_fuse,
        "dempster": dempster_fuse,
    }[rule]
    acc = bbas[0]
    for nxt in bbas[1:]:
        acc = fold(acc, nxt)
    return acc


def _format_report(
    model: Model,
    rule: str,
    names: list[str],
    result: FusionOutcome | Bba,
    with_beliefs: bool,
) -> tuple[str, int]:
    algebra = model.algebra
    lines = [
        f"rule: {rule}",
        f"model: {model.path}",
        "sources: [" + ", ".join(names) + "]",
    ]
    if isinstance(result, FusionOutcome) and not result.accepted:
        rej = result.rejection
        lines.append("status: rejected")
        lines.append(f"phase1_residual: {_fmt(rej.phase1_residual)}")
        if rej.violated_family:
            fam = ", ".join(
                f'"{algebra.label(p)}"' for p in rej.violated_family
            )
            lines.append(f"violated_family: [{fam}]")
        lines.append(f'message: "{rej.message}"')
        return "\n".join(lines) + "\n", 2
    fused = result.bba if isinstance(result, FusionOutcome) else result
    lines.append("status: fused")
    lines.append("masses:")
    lines.extend(_mass_lines(algebra, fused.masses))
    if isinstance(result, FusionOutcome):
        d = result.diagnostics
        lines.append("diagnostics:")
        lines.append(f"  entropy: {_fmt(d.entropy)}")
        lines.append(f"  iterations: {d.iterations}")
        lines.append(f"  max_marginal_residual: {_fmt(d.max_marginal_residual)}")
        lines.append(f"  optimality_certificate: {_fmt(d.optimality_certificate)}")
        lines.append(f"  certified: {str(d.certified).lower()}")
    if with_beliefs:
        lines.append("beliefs:")
        for prop in fused.algebra.lattice:
            lines.append(
                f'  "{algebra.label(prop)}": {_fmt(belief(fused, prop))}'
            )
    return "\n".join(lines) + "\n", 0


def cmd_algebra(args) -> int:
    model = load_model(args.model)
    algebra = model.algebra
    for warning in algebra.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"{len(algebra)} elements")
    for prop in algebra.lattice:
        print(algebra.label(prop))
    if args.check_insulation:
        print(f"insulation: {str(algebra.is_insulated).lower()}")
    return 0


def _solver_config(args) -> SolverConfig:
    kwargs = {}
    if args.tol is not None:
        kwargs["certificate_tol"] = args.tol
    if args.max_iter is not None:
        kwargs["max_iterations"] = args.max_iter
    return SolverConfig(**kwargs)


def cmd_fuse(args) -> int:
    model = load_model(args.model, renormalize=args.renormalize)
    picked = _pick_sources(model, args.sources)
    if args.rule not in RULE_NAMES:
        raise CliError(f"unknown rule {args.rule!r}; choose from {RULE_NAMES}")
    names = [name for name, _ in picked]
    bbas = [b for _, b in picked]
    try:
        result = _run_rule(args.rule, bbas, _solver_config(args))
    except (RuleError, EmrError, AlgebraError, BbaError) as exc:
        raise CliError(str(exc)) from exc
    report, code = _format_report(model, args.rule, names, result, args.beliefs)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)
    return code


def cmd_compare(args) -> int:
    model = load_model(args.model, renormalize=args.renormalize)
    picked = _pick_sources(model, args.sources)
    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    for rule in rules:
        if rule not in RULE_NAMES:
            raise CliError(f"unknown rule {rule!r}; choose from {RULE_NAMES}")
    bbas = [b for _, b in picked]
    config = _solver_config(args)
    columns: dict[str, dict | None] = {}
    for rule in rules:
        try:
            result = _run_rule(rule, bbas, config)
        except (RuleError, EmrError, AlgebraError, BbaError) as exc:
            raise CliError(f"rule {rule!r}: {exc}") from exc
        if isinstance(result, FusionOutcome) and not result.accepted:
            columns[rule] = None
        else:
            fused = result.bba if isinstance(result, FusionOutcome) else result
            columns[rule] = dict(fused.masses)
    algebra = model.algebra
    shown = sorted(
        {p for masses in columns.values() if masses for p in masses},
        key=lambda p: algebra.index[p],
    )
    width = max([11] + [len(algebra.label(p)) for p in shown]) + 2
    header = "proposition".ljust(width) + "".join(r.ljust(14) for r in rules)
    print(header)
    for prop in shown:
        row = algebra.label(prop).ljust(width)
        for rule in rules:
            masses = columns[rule]
            if masses is None:
                row += "REJECTED".ljust(14)
            else:
                row += f"{masses.get(prop, 0.0):.6f}".ljust(14)
        print(row.rstrip())
    return 0


def cmd_check(args) -> int:
    model = load_model(args.model, renormalize=args.renormalize)
    picked = _pick_sources(model, args.sources)
    bbas = [b for _, b in picked]
    try:
        residual, rejection = emr_check(bbas)
    except (EmrError, AlgebraError, BbaError) as exc:
        raise CliError(str(exc)) from exc
    print(f"feasible: {str(rejection is None).lower()}")
    print(f"phase1_residual: {_fmt(residual)}")
    if rejection is not None and rejection.violated_family:
        family = rejection.violated_family
        labels = ", ".join(model.algebra.label(p) for p in family)
        print(f"violated_family: [{labels}]")
    return 0 if rejection is None else 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", help="path to a YAML model file")
    parser.add_argument(
        "--renormalize",
        action="store_true",
        help="explicitly rescale mis-normalized source masses",
    )


def _add_solver(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol", type=float, default=None, help="solver optimality tolerance"
    )
    parser.add_argument(
        "--max-iter", type=int, default=None, help="solver iteration cap"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emrfuse",
        description="Fuse evidence sources over constrained pre-Boolean algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_algebra = sub.add_parser("algebra", help="inspect the model's lattice")
    p_algebra.add_argument("model")
    p_algebra.add_argument("--check-insulation", action="store_true")
    p_algebra.set_defaults(func=cmd_algebra)

    p_fuse = sub.add_parser("fuse", help="fuse sources under one rule")
    _add_common(p_fuse)
    _add_solver(p_fuse)
    p_fuse.add_argument("--rule", default="emr", help="rule identifier")
    p_fuse.add_argument("--sources", required=True, help="comma-separated names")
    p_fuse.add_argument("--out", default=None, help="write the report here")
    p_fuse.add_argument(
        "--beliefs", action="store_true", help="include a belief table"
    )
    p_fuse.set_defaults(func=cmd_fuse)

    p_compare = sub.add_parser("compare", help="run several rules side by side")
    _add_common(p_compare)
    _add_solver(p_compare)
    p_compare.add_argument("--rules", required=True, help="comma-separated rules")
    p_compare.add_argument("--sources", required=True)
    p_compare.set_defaults(func=cmd_compare)

    p_check = sub.add_parser("check", help="EMR feasibility analysis")
    _add_common(p_check)
    p_check.add_argument("--sources", required=True)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
