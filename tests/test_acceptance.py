"""Acceptance battery: nine gates over the whole solver stack.

Each test prints one `criterion N: PASS/FAIL` line to the real stdout so a
plain pytest run doubles as the acceptance report. Results produced along
the way are pooled and re-validated wholesale by the certificate gate.
"""

import contextlib
import math
import time
from collections import Counter

import numpy as np

from qsd import (
    PLATONIC_KINDS,
    PRINTED_EDGE_COEFFICIENTS,
    PlatonicSolid,
    classical_diagonal_oracle,
    cone_ensemble,
    edge_coefficient_report,
    gram_identity_residual,
    lambdas_three_state,
    measured_edge_coefficient,
    mirror_ensemble,
    mirror_regime,
    mirror_threshold,
    platonic_ensemble,
    random_povm_sample,
    solve_auto,
    solve_cone,
    solve_diagonal,
    solve_oracle,
    solve_symmetric_shell,
    solve_three_state,
    solve_two_state,
    validate_ensemble,
)
from helpers import assert_result_valid, random_diagonal_ensemble, random_ensemble

# (ensemble, result) pairs accumulated by the early gates and re-checked by
# the certificate and consistency gates
_POOL = []


def _emit(capsys, line):
    with capsys.disabled():
        print(line)


@contextlib.contextmanager
def criterion(capsys, num):
    note = {"detail": "ok"}
    try:
        yield note
    except BaseException:
        _emit(capsys, f"criterion {num}: FAIL")
        raise
    _emit(capsys, f"criterion {num}: PASS - {note['detail']}")


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _ensure_pool():
    """Standalone fallback so the pooled gates work outside a full run."""
    if _POOL:
        return
    rng = np.random.default_rng(7)
    canned = [
        cone_ensemble(3, 1.0, 0.5 * math.pi),
        validate_ensemble(((0.9, (0, 0, 1)), (0.05, (0, 0, -1)), (0.05, (1, 0, 0)))),
        validate_ensemble(((0.3, (0, 0, 1)), (0.7, (0.6, 0, 0.8)))),
        mirror_ensemble(math.pi / 3.0, 0.3),
    ]
    for ens in canned:
        _POOL.append((ens, solve_auto(ens)))
    for _ in range(6):
        ens = random_ensemble(rng, int(rng.integers(2, 7)))
        _POOL.append((ens, solve_auto(ens)))


def test_criterion_1_trine(capsys):
    with criterion(capsys, 1) as note:
        ens = cone_ensemble(3, 1.0, 0.5 * math.pi)
        res_three = solve_three_state(ens)
        res_cone = solve_cone(3, 1.0, 0.5 * math.pi)
        assert abs(res_three.p_opt - 2.0 / 3.0) <= 1e-9
        assert abs(res_cone.p_opt - 2.0 / 3.0) <= 1e-9
        t_three = _best_of(lambda: solve_three_state(ens))
        t_cone = _best_of(lambda: solve_cone(3, 1.0, 0.5 * math.pi))
        assert t_three < 0.010
        assert t_cone < 0.010
        _POOL.append((ens, res_three))
        _POOL.append((ens, res_cone))
        note["detail"] = (
            f"p_opt = {res_three.p_opt:.12f} both routes;"
            f" {t_three * 1e3:.2f} ms / {t_cone * 1e3:.2f} ms"
        )


def test_criterion_2_two_state_vs_oracle(capsys):
    with criterion(capsys, 2) as note:
        rng = np.random.default_rng(202)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            ens = random_ensemble(rng, 2)
            closed = solve_two_state(ens)
            oracle = solve_oracle(ens)
            worst = max(worst, abs(closed.p_opt - oracle.p_opt))
            _POOL.append((ens, closed))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-7
        assert elapsed < 10.0
        note["detail"] = f"1000 ensembles, max |dp| = {worst:.2e}, {elapsed:.2f} s"


def test_criterion_3_three_state_vs_oracle(capsys):
    with criterion(capsys, 3) as note:
        rng = np.random.default_rng(303)
        worst = 0.0
        counts = Counter()
        for _ in range(1000):
            ens = random_ensemble(rng, 3)
            res = solve_three_state(ens)
            oracle = solve_oracle(ens)
            counts[res.method] += 1
            worst = max(worst, abs(res.p_opt - oracle.p_opt))
            _POOL.append((ens, res))
        assert worst <= 1e-6
        assert counts["three-state-boundary"] >= 1
        assert counts["three-state-interior"] >= 1
        freq = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        note["detail"] = f"max |dp| = {worst:.2e}; branches: {freq}"


def test_criterion_4_mirror_grid(capsys):
    with criterion(capsys, 4) as note:
        thetas = [math.radians(d) for d in range(10, 81, 10)]
        p1_grid = [round(0.05 * k, 2) for k in range(1, 10)]
        worst_solver = 0.0
        worst_oracle = 0.0
        map_lines = []
        for theta in thetas:
            thr = mirror_threshold(theta)
            tags = []
            for p1 in p1_grid:
                reg = mirror_regime(theta, p1)
                ens = mirror_ensemble(theta, p1)
                res = solve_three_state(ens)
                oracle = solve_oracle(ens)
                worst_solver = max(worst_solver, abs(reg.reference_p - res.p_opt))
                worst_oracle = max(worst_oracle, abs(reg.reference_p - oracle.p_opt))
                if res.method == "three-state-boundary":
                    tags.append("B")
                elif res.method == "three-state-interior":
                    tags.append("I")
                else:
                    near_pair = abs(res.p_opt - reg.pair_value)
                    near_interior = abs(res.p_opt - reg.interior_value)
                    tags.append("B" if near_pair <= near_interior else "I")
                _POOL.append((ens, res))
            # validated regime must be interior below the threshold prior and
            # boundary above it, with the switch bracketing the formula value
            assert tags == sorted(tags, key=lambda t: t == "B")
            if "B" in tags:
                first_b = tags.index("B")
                assert thr <= p1_grid[first_b] + 1e-12
                if first_b > 0:
                    assert thr > p1_grid[first_b - 1]
            else:
                assert thr > p1_grid[-1]
            at_threshold = mirror_regime(theta, thr)
            assert abs(at_threshold.pair_value - at_threshold.interior_value) <= 1e-6
            map_lines.append(
                f"  theta = {math.degrees(theta):2.0f} deg   threshold = {thr:.4f}   "
                + "".join(tags)
            )
        _emit(capsys, "mirror regime map (p1 = 0.05 .. 0.45, I interior / B boundary):")
        for line in map_lines:
            _emit(capsys, line)
        assert worst_solver <= 1e-8
        assert worst_oracle <= 1e-6
        note["detail"] = (
            f"72 grid points, max |dp| vs solver = {worst_solver:.2e},"
            f" vs oracle = {worst_oracle:.2e}; crossovers at threshold"
        )


def test_criterion_5_platonic_solids(capsys):
    with criterion(capsys, 5) as note:
        for kind in PLATONIC_KINDS:
            solid = PlatonicSolid(kind)
            ens, _ = platonic_ensemble(solid)
            shell = solve_symmetric_shell(ens)
            oracle = solve_oracle(ens)
            assert abs(shell.p_opt - 2.0 / solid.n) <= 1e-9
            assert abs(oracle.p_opt - 2.0 / solid.n) <= 1e-9
            _POOL.append((ens, shell))
        for kind in ("tetrahedron", "cube", "octahedron", "icosahedron"):
            printed = PRINTED_EDGE_COEFFICIENTS[kind]
            assert abs(printed - measured_edge_coefficient(kind)) <= 1e-10
        gap = abs(
            PRINTED_EDGE_COEFFICIENTS["dodecahedron"]
            - measured_edge_coefficient("dodecahedron")
        )
        assert gap > 1e-3
        assert edge_coefficient_report().count("MISMATCH") == 1
        note["detail"] = (
            "all five solids at 2/N both routes; four coefficients confirmed,"
            f" dodecahedron discrepancy {gap:.4f} reported"
        )


def test_criterion_6_diagonal_exact(capsys):
    with criterion(capsys, 6) as note:
        ens = validate_ensemble(
            ((0.5, (0, 0, 0.8)), (0.3, (0, 0, -0.5)), (0.2, (0, 0, 0.1)))
        )
        res = solve_diagonal(ens)
        assert res.p_opt == 0.675
        assert res.p_opt == classical_diagonal_oracle(ens)
        _POOL.append((ens, res))
        rng = np.random.default_rng(606)
        for _ in range(500):
            dens = random_diagonal_ensemble(rng, int(rng.integers(2, 7)))
            dres = solve_diagonal(dens)
            assert dres.p_opt == classical_diagonal_oracle(dens)
            _POOL.append((dens, dres))
        note["detail"] = "0.675 exact; 500 random diagonal draws bit-equal to classical"


def test_criterion_7_certificate_suite(capsys):
    with criterion(capsys, 7) as note:
        _ensure_pool()
        regular = degenerate = 0
        for ens, res in _POOL:
            assert_result_valid(ens, res)
            if res.certificate.degenerate:
                degenerate += 1
            else:
                regular += 1
        note["detail"] = (
            f"validated {len(_POOL)} solver outputs"
            f" ({regular} regular, {degenerate} degenerate)"
        )


def test_criterion_8_random_povm_bound(capsys):
    with criterion(capsys, 8) as note:
        rng = np.random.default_rng(808)
        worst_excess = -math.inf
        for _ in range(50):
            ens = random_ensemble(rng, int(rng.integers(2, 7)))
            res = solve_auto(ens)
            best = random_povm_sample(ens, 10_000, seed=int(rng.integers(0, 2 ** 31)))
            worst_excess = max(worst_excess, best - res.p_opt)
            _POOL.append((ens, res))
        assert worst_excess <= 1e-8
        note["detail"] = (
            f"50 ensembles x 10^4 sampled POVMs, max excess = {worst_excess:.2e}"
        )


def test_criterion_9_interior_multiplier_consistency(capsys):
    with criterion(capsys, 9) as note:
        _ensure_pool()
        interior = [
            (ens, res) for ens, res in _POOL if res.method == "three-state-interior"
        ]
        assert interior
        worst_gram = 0.0
        for ens, res in interior:
            cert = res.certificate
            c = cert.conjugates
            dots = (float(c[0] @ c[1]), float(c[0] @ c[2]), float(c[1] @ c[2]))
            worst_gram = max(worst_gram, abs(gram_identity_residual(dots)))
            # raises GramConsistencyError when the two algebraic routes
            # disagree beyond 1e-8
            lam = lambdas_three_state(dots, cert.scaled_priors)
            np.testing.assert_allclose(lam, cert.lambdas, atol=1e-8)
        assert worst_gram <= 1e-8
        note["detail"] = (
            f"{len(interior)} interior solutions, max coplanarity defect"
            f" = {worst_gram:.2e}, multiplier routes agree"
        )
