"""Command-line front end: solve ensemble files, verify POVMs, run demos.

Exit codes: 0 success, 1 invalid input or out of memory, 2 numerical
failure, 3 bound violation detected by verify. Output is text by default;
--format json prints one JSON object on one line, its floats through repr
so a report re-imported from JSON reproduces the original values exactly.
main() can be called repeatedly in one process: the argument parser is
built on the first call and reused, and no other state carries over
between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .bloch import (
    BOUND_SLACK,
    COMPLETENESS_TOL,
    EDGE_COEFFICIENT_TOL,
    FAMILY_TOL,
    KKT_TOL,
    ORTHOGONALITY_TOL,
    PIVOT_WINDOW,
    PURITY_TOL,
    SUCCESS_TOL,
    DiscriminationResult,
    Povm,
    WeightedEnsemble,
    check_povm_elements,
    validate_ensemble,
)
from .closed_form import (
    SOLVE_METHODS,
    cone_ensemble,
    mirror_regime,
    solve_auto,  # unused here; bench/tests/test_bench.py reads qsd.cli.solve_auto
    solve_cone,
    solve_diagonal,
    solve_mirror_symmetric,
    solve_symmetric_shell,
    solve_three_state,
    solve_with_method as _solve_with_method,  # tests patch this name
)
from .errors import DiscriminationError
from .family import success_probability
from .oracle import classical_diagonal_oracle, solve_oracle
from .platonic import (
    PLATONIC_KINDS,
    PRINTED_EDGE_COEFFICIENTS,
    PlatonicSolid,
    measured_edge_coefficient,
    platonic_ensemble,
)

__all__ = ["main", "parse_ensemble_file", "parse_povm_file", "build_report"]

_DEMO_NAMES = ("diagonal", "cone", "mirror", "trine") + PLATONIC_KINDS


# ---------------------------------------------------------------------------
# input files


def _read_rows(path: str, layout: str):
    """Yield four floats per line, `#` comment lines and blank lines skipped.

    The file is read in one call and each line split once; lines are
    numbered as iterating the open file numbers them. A UTF-8 byte-order
    mark, as some editors write one, is dropped. Rows are yielded one at a
    time, so a caller sees every row before a later malformed line.
    """
    with open(path, encoding="utf-8-sig") as handle:
        text = handle.read()
    for lineno, line in enumerate(text.split("\n"), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields `{layout}`, got {len(fields)}")
        try:
            row = tuple(map(float, fields))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric field in {line.strip()!r}") from None
        yield row


def parse_ensemble_file(path: str, renormalize: bool = False) -> WeightedEnsemble:
    """Lines `<prior> <bx> <by> <bz>`; `#` comment lines and blank lines skipped."""
    rows = list(_read_rows(path, "<prior> <bx> <by> <bz>"))
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 state lines, got {len(rows)}")
    table = np.array(rows)
    return WeightedEnsemble(table[:, 0], table[:, 1:], renormalize=renormalize)


def parse_povm_file(path: str, expected_n: int) -> Povm:
    """Lines `<a> <vx> <vy> <vz>`, one per ensemble state, same order."""
    rows = []
    try:
        rows.extend(_read_rows(path, "<a> <vx> <vy> <vz>"))
    finally:  # a bad element is reported before a later malformed line or the count
        table = np.array(rows).reshape(-1, 4)
        check_povm_elements(table[:, 0], table[:, 1:])
    if len(table) != expected_n:
        raise ValueError(f"{path}: got {len(table)} POVM elements for {expected_n} states")
    return Povm(table[:, 0], table[:, 1:])


# ---------------------------------------------------------------------------
# reports


# every tolerance a report quotes; the oracle's is its fixed pivot window
_TOLERANCES = {
    "oracle": PIVOT_WINDOW,
    "purity_classification": PURITY_TOL,
    "kkt_pass": KKT_TOL,
    "family_residual": FAMILY_TOL,
    "success_match": SUCCESS_TOL,
    "povm_completeness": COMPLETENESS_TOL,
    "orthogonality": ORTHOGONALITY_TOL,
    "bound_slack": BOUND_SLACK,
}


def build_report(
    result: DiscriminationResult, cross_check: DiscriminationResult | None = None
) -> dict:
    """The solve report of a result, read from the result alone (its ensemble too).

    Its values are read from the records' floats (their `lists`), and every
    vector is a list.
    """
    ensemble = result.ensemble
    cert = result.certificate
    priors, bloch, _ = ensemble.lists
    a_values, v_rows = result.povm.lists
    common_point, conjugates, _, lambdas = cert.lists
    pure = cert.pure_mask.tolist()
    # b.v added left to right, (bx*vx + by*vy) + bz*vz, which fixes each float's rounding
    contributions = [
        prior * (a + (bx * vx + by * vy + bz * vz))
        for prior, a, (bx, by, bz), (vx, vy, vz) in zip(priors, a_values, bloch, v_rows)
    ]
    # |c_i| rounded as bloch.row_norms rounds the norm the gate tested
    norms = [math.sqrt(x * x + y * y + z * z) for x, y, z in conjugates]
    states = [
        {
            "index": i,
            "prior": priors[i],
            "bloch": list(bloch[i]),
            "conjugate": list(conj),
            "conjugate_norm": norms[i],
            "pure": pure[i],
            "povm_a": a_values[i],
            "povm_v": list(v_rows[i]),
            "lambda": lambdas[i],
            "contribution": contributions[i],
        }
        for i, conj in enumerate(conjugates)
    ]
    kkt = result.kkt
    report = {
        "command": "solve",
        "method": result.method,
        "p_opt": result.p_opt,
        "success": math.fsum(contributions),
        "degenerate": cert.degenerate,
        "common_point": list(common_point),
        "states": states,
        "kkt": {
            "residuals": kkt.residuals(),
            "worst": list(kkt.worst()),
            "passes": kkt.passes,
            "degenerate": kkt.degenerate,
        },
        "tolerances": dict(_TOLERANCES),
    }
    if cross_check is not None:
        report["cross_check"] = {
            "oracle_p": cross_check.p_opt,
            "delta_p": abs(cross_check.p_opt - result.p_opt),
        }
    return report


def _fmt_vec(values) -> str:
    return "(" + ", ".join(f"{v: .10f}" for v in values) + ")"


def _render_solve_text(report: dict) -> str:
    lines = [
        "minimum-error discrimination report",
        f"method: {report['method']}"
        + ("    [degenerate: guessing regime]" if report["degenerate"] else ""),
        f"p_opt: {report['p_opt']:.17g}",
        f"success probability: {report['success']:.17g}",
        f"common point: {_fmt_vec(report['common_point'])}",
        "",
    ]
    for rec in report["states"]:
        lines += [
            f"state {rec['index'] + 1}",
            f"  prior         {rec['prior']:.10f}",
            f"  bloch         {_fmt_vec(rec['bloch'])}",
            f"  conjugate     {_fmt_vec(rec['conjugate'])}"
            f"   |c| = {rec['conjugate_norm']:.10f}"
            f"   {'pure' if rec['pure'] else 'mixed'}",
            f"  povm          a = {rec['povm_a']:.10f}   v = {_fmt_vec(rec['povm_v'])}",
            f"  lambda        {rec['lambda']:.10f}",
            f"  contribution  {rec['contribution']:.10f}",
        ]
    kkt = report["kkt"]
    status = "PASS" if kkt["passes"] else "FAIL"
    note = "  [degenerate certificate]" if kkt["degenerate"] else ""
    lines += ["", f"kkt residuals (pass at {KKT_TOL:.0e}): {status}{note}"]
    for name, value in kkt["residuals"].items():
        lines.append(f"  {name:<16}{value:.3e}")
    worst_name, worst_value = kkt["worst"]
    lines.append(f"  worst: {worst_name} = {worst_value:.3e}")
    if "cross_check" in report:
        cc = report["cross_check"]
        lines += [
            "",
            "oracle cross-check",
            f"  oracle p_opt  {cc['oracle_p']:.17g}",
            f"  |delta p|     {cc['delta_p']:.3e}",
        ]
    lines += ["", "effective tolerances"]
    for name, value in report["tolerances"].items():
        lines.append(f"  {name:<22}{value:.0e}")
    return "\n".join(lines)


def _render_verify_text(report: dict) -> str:
    lines = [
        "measurement verification report",
        f"success probability: {report['success']:.17g}",
        f"solved p_opt:        {report['p_opt']:.17g}   (method {report['method']})",
        f"margin (p_opt - success): {report['margin']:.17g}",
        f"bound: {'satisfied' if report['bound_satisfied'] else 'VIOLATED'}",
        f"completeness residual: {report['completeness_residual']:.3e}",
        f"min PSD slack (a - |v|): {report['psd_slack_min']:.3e}",
        "",
        "effective tolerances",
    ]
    for name, value in report["tolerances"].items():
        lines.append(f"  {name:<22}{value:.0e}")
    return "\n".join(lines)


def _emit(report: dict, fmt: str, render_text) -> None:
    if fmt == "json":
        # a report is a tree built afresh for this call, so no cycle to look for
        print(json.dumps(report, check_circular=False))
    else:
        print(render_text(report))


# ---------------------------------------------------------------------------
# commands


def cmd_solve(args) -> int:
    ensemble = parse_ensemble_file(args.path, renormalize=args.renormalize)
    result = _solve_with_method(ensemble, args.method)
    cross = solve_oracle(ensemble) if args.cross_check else None
    report = build_report(result, cross_check=cross)
    report["input"] = args.path
    _emit(report, args.format, _render_solve_text)
    return 0


def cmd_verify(args) -> int:
    ensemble = parse_ensemble_file(args.path, renormalize=args.renormalize)
    povm = parse_povm_file(args.povm_path, ensemble.n)
    success = success_probability(ensemble, povm)
    result = _solve_with_method(ensemble, args.method)
    satisfied = success <= result.p_opt + BOUND_SLACK

    a_values, v_rows = povm.lists
    v_sum = np.sum(povm.v, axis=0)
    completeness = max(abs(math.fsum(a_values) - 1.0), float(np.linalg.norm(v_sum)))
    psd_slack = min(a - math.sqrt(x * x + y * y + z * z) for a, (x, y, z) in zip(a_values, v_rows))

    report = {
        "command": "verify",
        "input": args.path,
        "povm_input": args.povm_path,
        "method": result.method,
        "success": success,
        "p_opt": result.p_opt,
        "margin": result.p_opt - success,
        "bound_satisfied": satisfied,
        "completeness_residual": completeness,
        "psd_slack_min": psd_slack,
        "tolerances": dict(_TOLERANCES),
    }
    _emit(report, args.format, _render_verify_text)
    return 0 if satisfied else 3


def _demo_spec(args):
    """Build (result, reference_p, reference_note, extra_lines) of one of _DEMO_NAMES."""
    name = args.name
    if name == "trine":
        result = solve_three_state(cone_ensemble(3, 1.0, 0.5 * math.pi))
        return result, 2.0 / 3.0, "cone value (1 + b sin theta)/N", []
    if name == "cone":
        n = args.n if args.n is not None else 4
        b = args.b if args.b is not None else 0.8
        theta = args.theta if args.theta is not None else math.pi / 3.0
        return (
            solve_cone(n, b, theta),
            (1.0 + b * math.sin(theta)) / n,
            f"cone value (1 + b sin theta)/N at N={n}, b={b:g}, theta={theta:g}",
            [],
        )
    if name == "diagonal":
        entries = ((0.5, (0.0, 0.0, 0.8)), (0.3, (0.0, 0.0, -0.5)), (0.2, (0.0, 0.0, 0.1)))
        ensemble = validate_ensemble(entries)
        return (
            solve_diagonal(ensemble),
            classical_diagonal_oracle(ensemble),
            "classical two-outcome value: max_i up_i + max_j down_j",
            [],
        )
    if name == "mirror":
        theta = args.theta if args.theta is not None else math.pi / 3.0
        p1 = args.p1 if args.p1 is not None else 0.4
        regime = mirror_regime(theta, p1)
        result = solve_mirror_symmetric(theta, p1)
        extra = [
            f"regime: {regime.regime}   (threshold p1' = {regime.threshold:.10f})",
            f"pair-candidate value:     {regime.pair_value:.17g}",
            f"interior-candidate value: {regime.interior_value:.17g}",
        ]
        return result, regime.reference_p, f"{regime.regime} formula", extra
    # a Platonic solid: argparse's choices admit nothing else
    scale = args.scale if args.scale is not None else 1.0
    solid = PlatonicSolid(name, scale)
    ensemble, reference = platonic_ensemble(solid)
    result = solve_symmetric_shell(ensemble)
    extra = [
        f"shell-formula reference (1 + b)/N: {reference.shell_formula_p:.17g}",
        f"edge-formula reference:            {reference.edge_formula_p:.17g}",
    ]
    printed = PRINTED_EDGE_COEFFICIENTS[name]
    measured = measured_edge_coefficient(name)
    if abs(printed - measured) > EDGE_COEFFICIENT_TOL:
        extra += [
            f"edge-coefficient mismatch: tabulated {printed:.10f},"
            f" measured {measured:.10f}",
            "the two references disagree; the shell/oracle value is authoritative",
        ]
    return result, reference.shell_formula_p, "shell value (1 + b)/N", extra


def cmd_demo(args) -> int:
    result, reference_p, reference_note, extra = _demo_spec(args)
    report = build_report(result, cross_check=solve_oracle(result.ensemble))
    report["command"] = "demo"
    report["demo"] = args.name
    report["reference_p"] = reference_p
    report["reference_note"] = reference_note
    report["reference_delta"] = abs(reference_p - result.p_opt)
    if extra:
        report["annotations"] = extra

    def render(rep: dict) -> str:
        head = [
            f"demo: {rep['demo']}",
            f"reference p: {rep['reference_p']:.17g}   ({rep['reference_note']})",
            f"computed  p: {rep['p_opt']:.17g}   |delta| = {rep['reference_delta']:.3e}",
        ]
        head += extra
        return "\n".join(head) + "\n\n" + _render_solve_text(rep)

    _emit(report, args.format, render)
    return 0


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this front end reserves 2 for numerical
    failure, so usage errors are remapped to exit 1 (invalid input)."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first main() call and reused after it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = _Parser(prog="qsd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common], help="solve an ensemble file")
    p_solve.add_argument("path", help="ensemble file: lines `<prior> <bx> <by> <bz>`")
    p_solve.add_argument("--method", choices=SOLVE_METHODS, default="auto")
    p_solve.add_argument("--cross-check", action="store_true", help="also run the oracle")
    p_solve.add_argument(
        "--renormalize", action="store_true", help="rescale priors to sum to 1"
    )

    p_verify = sub.add_parser(
        "verify", parents=[common], help="check a POVM file against the solved bound"
    )
    p_verify.add_argument("path", help="ensemble file")
    p_verify.add_argument("povm_path", help="POVM file: lines `<a> <vx> <vy> <vz>`")
    p_verify.add_argument("--method", choices=SOLVE_METHODS, default="auto")
    p_verify.add_argument("--renormalize", action="store_true")

    p_demo = sub.add_parser("demo", parents=[common], help="run a built-in example")
    p_demo.add_argument("name", choices=_DEMO_NAMES)
    p_demo.add_argument("--theta", type=float, help="polar/tilt angle (cone, mirror)")
    p_demo.add_argument("--p1", type=float, help="prior of each tilted state (mirror)")
    p_demo.add_argument("--b", type=float, help="Bloch norm (cone)")
    p_demo.add_argument("--n", type=int, help="number of states (cone)")
    p_demo.add_argument("--scale", type=float, help="circumradius (Platonic solids)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"solve": cmd_solve, "verify": cmd_verify, "demo": cmd_demo}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"qsd: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except DiscriminationError as exc:
        print(f"qsd: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
