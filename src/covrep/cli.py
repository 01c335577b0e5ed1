"""Command-line front end: validate instances, run property checks, compute
Wold decompositions, and verify the named theorems on instance files.

Exit codes: 0 pass, 1 check/verify/validation failure, 2 input error,
3 theorem hypothesis not met.  JSON reports embed the resolved tolerance,
the library version, and the instance itself, so re-running a report's
embedded instance at the same tolerance reproduces it byte-for-byte.
Reports write each matrix of the instance, and the bases of ``decompose``,
as one record of its nonzero entries (``serialize.matrix_to_json``), the
layout of the current instance ``format``; files of format 1 are read too.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import __version__
from ._linalg import DEFAULT_TOL
from .correspondence import Correspondence, validate_correspondence
from .covrep import CovariantRep
from .algebra import validate_representation
from .errors import (
    CovrepError,
    KindMismatch,
    NotIsometric,
    NotLeftInvertible,
    ParseError,
)
from .product import (
    ProductRep,
    doubly_flag,
    validate_product_system,
    verify_P21_all,
    verify_T22,
    verify_T24_equivalence,
)
from .reporting import CheckItem, TheoremReport
from .serialize import dump_json, instance_to_json, load_instance, matrix_to_json
from .wold import (
    Subspace,
    verify_cauchy_dual_props,
    verify_muhly_solel,
    verify_richter,
    wold_decompose,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3

#: covariant property -> method ``check_<name>`` of CovariantRep, dashes as underscores
_COVREP_CHECKS = (
    "isometric",
    "fully-coisometric",
    "concave",
    "expansive",
    "shimorin",
    "eq13",
    "eq12",
    "analytic",
)
_PRODUCT_CHECKS = ("rep-relation", "doubly-commuting")


def _resolve_tolerance(value: float | None) -> float:
    if value is not None:
        if not (math.isfinite(value) and value > 0):
            raise ParseError("tolerance must be a positive finite number")
        return value
    env = os.environ.get("COVREP_TOLERANCE")
    if env:
        try:
            out = float(env)
        except ValueError as exc:
            raise ParseError(f"COVREP_TOLERANCE is not a number: {env!r}") from exc
        if not (math.isfinite(out) and out > 0):
            raise ParseError("COVREP_TOLERANCE must be a positive finite number")
        return out
    return DEFAULT_TOL


def _emit(report: dict, fmt: str, lines) -> None:
    if fmt == "json":
        sys.stdout.write(dump_json(report))
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _item_line(item: dict) -> str:
    flag = "PASS" if item["pass"] else "FAIL"
    extra = " (vacuous)" if item.get("vacuous") else ""
    return f"  {item['name']}: {flag} residual={item['residual']:.3e}{extra}"


def _base_report(args, command: str, tol: float) -> dict:
    return {
        "command": command,
        "version": __version__,
        "tolerance": tol,
        "seed": args.seed,
    }


def _load_checked(path: str, tol: float):
    """Load an instance; (obj, None, 0) on success, else (None, msg, code)."""
    try:
        return load_instance(path, tol), None, EXIT_PASS
    except ParseError as exc:
        return None, f"parse error: {exc}", EXIT_INPUT
    except CovrepError as exc:
        return None, f"{type(exc).__name__}: {exc}", EXIT_FAIL


def _validators_for(obj) -> list:
    if isinstance(obj, Correspondence):
        return [validate_correspondence(obj)]
    reports = [validate_representation(obj.sigma)]
    if isinstance(obj, CovariantRep):
        reports.append(validate_correspondence(obj.E))
    elif isinstance(obj, ProductRep):
        for E in obj.system.correspondences:
            reports.append(validate_correspondence(E))
        reports.append(validate_product_system(obj.system))
        reports.append(obj.validate_commutation())
    return reports


def cmd_validate(args) -> int:
    tol = _resolve_tolerance(args.tolerance)
    results = []
    lines = []
    worst = EXIT_PASS
    for path in args.paths:
        obj, err, code = _load_checked(path, tol)
        if obj is None:
            results.append({"path": path, "pass": False, "error": err})
            lines.append(f"{path}: FAIL ({err})")
            worst = max(worst, code)
            continue
        reports = _validators_for(obj)
        ok = all(r.passed for r in reports)
        results.append(
            {"path": path, "pass": ok, "reports": [r.to_json() for r in reports]}
        )
        lines.append(f"{path}: {'PASS' if ok else 'FAIL'}")
        for rep in reports:
            for item in rep.items:
                if not item.passed:
                    lines.append(f"  {rep.subject}.{item.name}: FAIL residual={item.residual:.3e}")
        if not ok:
            worst = max(worst, EXIT_FAIL)
    report = _base_report(args, "validate", tol)
    report["results"] = results
    report["pass"] = worst == EXIT_PASS
    _emit(report, args.format, lines)
    return worst


def _run_check(obj, name: str):
    if isinstance(obj, CovariantRep):
        if name not in _COVREP_CHECKS:
            raise KindMismatch(
                f"property {name!r} does not apply to a covariant representation"
            )
        return getattr(obj, "check_" + name.replace("-", "_"))().as_item()
    if isinstance(obj, ProductRep):
        if name == "rep-relation":
            rep = obj.validate_commutation()
            return CheckItem("rep-relation", rep.passed, rep.max_violation)
        if name == "doubly-commuting":
            rep = obj.check_doubly_commuting()
            return CheckItem("doubly-commuting", doubly_flag(rep), rep.max_violation)
        if name in _COVREP_CHECKS:
            items = [_run_check(obj.rep(i), name) for i in range(obj.k)]
            return CheckItem(
                name,
                all(i.passed for i in items),
                max(i.residual for i in items),
                all(i.vacuous for i in items),
                detail="all coordinates",
            )
        raise KindMismatch(f"property {name!r} does not apply to a product tuple")
    raise KindMismatch("instance kind supports no property checks")


def cmd_check(args) -> int:
    tol = _resolve_tolerance(args.tolerance)
    obj, err, code = _load_checked(args.path, tol)
    if obj is None:
        sys.stderr.write(err + "\n")
        return code
    items = []
    try:
        for name in args.properties:
            items.append(_run_check(obj, name).to_json())
    except KindMismatch as exc:
        sys.stderr.write(f"kind mismatch: {exc}\n")
        return EXIT_INPUT
    report = _base_report(args, "check", tol)
    report["instance"] = instance_to_json(obj)
    report["checks"] = items
    report["pass"] = all(i["pass"] for i in items)
    _emit(report, args.format, [_item_line(i) for i in items])
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def cmd_decompose(args) -> int:
    tol = _resolve_tolerance(args.tolerance)
    obj, err, code = _load_checked(args.path, tol)
    if obj is None:
        sys.stderr.write(err + "\n")
        return code
    if not isinstance(obj, CovariantRep):
        sys.stderr.write("kind mismatch: decompose expects a covariant representation\n")
        return EXIT_INPUT
    wd = wold_decompose(obj)
    report = _base_report(args, "decompose", tol)
    report["instance"] = instance_to_json(obj)
    report["decomposition"] = wd.to_json()
    report["decomposition"]["bases"] = {
        "W": matrix_to_json(wd.W.basis),
        "H_u": matrix_to_json(wd.H_u.basis),
        "H_inf": matrix_to_json(wd.H_inf.basis),
    }
    report["pass"] = wd.certified and wd.hypothesis_met
    lines = [
        f"dims: W={wd.W.dim} H_u={wd.H_u.dim} H_inf={wd.H_inf.dim}",
        f"hypothesis met: {wd.hypothesis_met}",
    ] + [_item_line(i.to_json()) for i in wd.certificates]
    _emit(report, args.format, lines)
    if not wd.hypothesis_met:
        return EXIT_HYPOTHESIS
    return EXIT_PASS if wd.certified else EXIT_FAIL


def _verify_mt1(rep: CovariantRep) -> TheoremReport:
    wd = wold_decompose(rep)
    return TheoremReport(
        "mt1",
        hypotheses=wd.hypotheses,
        conclusions=wd.certificates,
        dims={"W": wd.W.dim, "H_u": wd.H_u.dim, "H_inf": wd.H_inf.dim},
    )


_KIND_NAMES = {CovariantRep: "a covariant representation", ProductRep: "a product-system tuple"}

#: theorem name -> (instance kind it applies to, verifier)
_THEOREMS = {
    "richter": (CovariantRep, lambda rep: verify_richter(rep, Subspace.full(rep.hdim))),
    "muhly-solel": (CovariantRep, verify_muhly_solel),
    "mt1": (CovariantRep, _verify_mt1),
    "cd": (CovariantRep, verify_cauchy_dual_props),
    "p21": (ProductRep, verify_P21_all),
    "t22": (ProductRep, verify_T22),
    "t24": (ProductRep, verify_T24_equivalence),
}
THEOREMS = tuple(_THEOREMS)


def _verify_dispatch(obj, theorem: str) -> TheoremReport:
    if theorem not in _THEOREMS:
        raise KindMismatch(f"unknown theorem {theorem!r}")
    kind, verifier = _THEOREMS[theorem]
    if not isinstance(obj, kind):
        raise KindMismatch(f"theorem {theorem!r} expects {_KIND_NAMES[kind]}")
    return verifier(obj)


def cmd_verify(args) -> int:
    tol = _resolve_tolerance(args.tolerance)
    obj, err, code = _load_checked(args.path, tol)
    if obj is None:
        sys.stderr.write(err + "\n")
        return code
    try:
        rep = _verify_dispatch(obj, args.theorem)
    except KindMismatch as exc:
        sys.stderr.write(f"kind mismatch: {exc}\n")
        return EXIT_INPUT
    except (NotIsometric, NotLeftInvertible) as exc:
        sys.stderr.write(f"hypothesis not met: {exc}\n")
        return EXIT_HYPOTHESIS
    report = _base_report(args, "verify", tol)
    report["theorem"] = args.theorem
    report["instance"] = instance_to_json(obj)
    report["report"] = rep.to_json()
    report["pass"] = rep.passed
    lines = [f"theorem {args.theorem}: {'PASS' if rep.passed else 'FAIL'}",
             f"hypotheses met: {rep.hypotheses_met}", "hypotheses:"]
    lines += [_item_line(i.to_json()) for i in rep.hypotheses]
    lines.append("conclusions:")
    lines += [_item_line(i.to_json()) for i in rep.conclusions]
    if rep.evaluated:
        lines.append("evaluated:")
        lines += [_item_line(i.to_json()) for i in rep.evaluated]
    _emit(report, args.format, lines)
    if rep.passed:
        return EXIT_PASS
    return EXIT_FAIL if rep.hypotheses_met else EXIT_HYPOTHESIS


def cmd_corpus(args) -> int:
    from .examples import write_corpus

    paths = write_corpus(args.out)
    for path in paths:
        sys.stdout.write(str(path) + "\n")
    return EXIT_PASS


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tolerance", type=float, default=None,
                        help="residual tolerance (default: COVREP_TOLERANCE or 1e-9)")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--seed", type=int, default=None,
                        help="recorded in reports for reproducibility")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``parse_args``
    leaves it unchanged and returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="covrep",
        description="Validate, check, decompose, and verify covariant-representation instances.",
    )
    parser.add_argument("--version", action="version", version=f"covrep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run all module validators on instance files")
    p.add_argument("paths", nargs="+")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="evaluate named properties of one instance")
    p.add_argument("path")
    p.add_argument("properties", nargs="+",
                   metavar="PROPERTY",
                   help=f"covariant: {', '.join(_COVREP_CHECKS)}; tuples also: {', '.join(_PRODUCT_CHECKS)}")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="compute the Wold-type decomposition")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="verify a named theorem on one instance")
    p.add_argument("path")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="write the named instance corpus as JSON files")
    p.add_argument("--out", "-o", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except CovrepError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
