"""Independent optimality check on one answer, in 2x2 complex matrices.

Nothing here calls the solver. From the benchmark's own inputs (priors p_i,
Bloch vectors b_i) and the answer's value p, common point r and POVM pairs
(a_i, v_i), it builds Pi_i = a_i I + v_i.sigma, rho_i = (I + b_i.sigma)/2
and Y = (p I + r.sigma)/2, and requires a valid measurement that reaches p
together with a dual point Y >= p_i rho_i whose trace is p. By weak duality
that proves p optimal without trusting either solver route.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

PSD_TOL = 1e-12
COMPLETENESS_TOL = 1e-10
DUAL_TOL = 1e-8
SUCCESS_TOL = 1e-8


class Answer(NamedTuple):
    """What a solve returned, reduced to the numbers the check needs."""

    method: str
    p: float
    r: tuple
    elements: tuple  # ((a, (vx, vy, vz)), ...), one pair per state


def operators(scalars, vectors) -> np.ndarray:
    """Stack of s_i I + w_i.sigma, shape (n, 2, 2)."""
    s = np.asarray(scalars, dtype=float)[:, None, None]
    w = np.asarray(vectors, dtype=float)
    return s * IDENTITY + np.einsum("nk,kij->nij", w, np.stack([SX, SY, SZ]))


def check_answer(entries, answer: Answer) -> list:
    """Reasons the answer is not a proven optimum for `entries`; empty when it is."""
    priors = np.array([p for p, _ in entries], dtype=float)
    bloch = np.array([b for _, b in entries], dtype=float)
    n = len(entries)
    if len(answer.elements) != n:
        return [f"{len(answer.elements)} POVM elements for {n} states"]
    pis = operators([a for a, _ in answer.elements], [v for _, v in answer.elements])
    rhos = operators(np.full(n, 0.5), 0.5 * bloch)
    y = operators([0.5 * answer.p], [0.5 * np.asarray(answer.r, dtype=float)])[0]

    problems = []
    psd = float(np.linalg.eigvalsh(pis).min())
    if psd < -PSD_TOL:
        problems.append(f"POVM element min eigenvalue {psd!r} < -{PSD_TOL}")
    completeness = float(np.abs(pis.sum(axis=0) - IDENTITY).max())
    if completeness > COMPLETENESS_TOL:
        problems.append(f"sum of POVM elements differs from I by {completeness!r}")
    dual = float(np.linalg.eigvalsh(y - priors[:, None, None] * rhos).min())
    if dual < -DUAL_TOL:
        problems.append(f"Y - p_i rho_i min eigenvalue {dual!r} < -{DUAL_TOL}")
    success = float(np.einsum("n,nij,nji->", priors, rhos, pis).real)
    if abs(success - answer.p) > SUCCESS_TOL:
        problems.append(f"success {success!r} differs from p = {answer.p!r}")
    return problems
