"""The float path of small records against the vectorized code it stands in for.

Records of at most bloch.FLOAT_ROWS rows are checked and built on Python
floats, and the solvers and the oracle run on the floats such a record
holds (WeightedEnsemble.held). The float path only accepts: anything it
declines goes to the vectorized code, which raises every refusal. These
tests run the same inputs both ways, with bloch.FLOAT_ROWS, which only
bloch reads, set to 0 for the vectorized side, and require the same stored
bytes, flags and masks, or the same exception type and message.
"""

import io
import math
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

import qsd
import qsd.bloch
import qsd.cli
import qsd.closed_form
import qsd.family
import qsd.oracle
from qsd import DiscriminationResult, HelstromCertificate, Povm, WeightedEnsemble, solve_auto
from qsd.bloch import (
    BALL_SLACK, COMPLETENESS_TOL, DEGENERACY_TOL, FAMILY_TOL, FLOAT_MARGIN, FLOAT_ROWS,
    NEG_WEIGHT_TOL, PSD_TOL, PURITY_TOL, RATIO_SLACK, STATE_NORM_TOL, SUCCESS_TOL)

from helpers import ball_points, near_guess_ensemble, sphere_points
from test_bloch import ERROR_TABLE
from test_family import GATE_REJECTIONS

_NAN, _INF = math.nan, math.inf


@contextmanager
def vectorized():
    """No record reaches the float path inside this block, so every solver reads arrays."""
    saved = qsd.bloch.FLOAT_ROWS
    qsd.bloch.FLOAT_ROWS = 0
    try:
        yield
    finally:
        qsd.bloch.FLOAT_ROWS = saved


def _arrays(*arrays):
    return tuple((a.dtype.str, a.shape, a.flags.writeable, a.tobytes()) for a in arrays)


def fingerprint(value):
    """Everything a record stores, byte for byte."""
    if isinstance(value, WeightedEnsemble):
        return _arrays(value.priors, value.bloch_matrix, value.weighted_points) + (
            repr(value.max_prior),)
    if isinstance(value, Povm):
        return _arrays(value.a, value.v)
    if isinstance(value, HelstromCertificate):
        return _arrays(value.conjugates, value.scaled_priors, value.lambdas, value.pure_mask,
                       value.common_point) + (repr(value.p), value.degenerate)
    assert isinstance(value, DiscriminationResult)
    return (value.method, repr(value.p_opt), fingerprint(value.povm),
            fingerprint(value.certificate), fingerprint(value.ensemble))


def outcome(call):
    try:
        return "ok", fingerprint(call())
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def assert_both_ways(call):
    """call() gives the same bytes, or raises the same error, on both paths."""
    floats = outcome(call)
    with vectorized():
        assert outcome(call) == floats
    return floats


def _entries(priors, points):
    return [(float(p), tuple(float(x) for x in row)) for p, row in zip(priors, points)]


def _solve(entries):
    return lambda: qsd.solve_auto(qsd.validate_ensemble(entries))


def test_float_rows_is_a_constant_of_at_least_three():
    assert type(FLOAT_ROWS) is int and FLOAT_ROWS >= 3


@pytest.mark.parametrize("n", range(2, FLOAT_ROWS + 2))
def test_seeded_ensembles_solve_alike(n):
    # n = FLOAT_ROWS + 1 runs the vectorized code on both sides
    rng = np.random.default_rng(2000 + n)
    for _ in range(40):
        priors = rng.dirichlet(np.ones(n))
        points = ball_points(rng, n) if rng.uniform() < 0.5 else sphere_points(rng, n)
        assert assert_both_ways(_solve(_entries(priors, points)))[0] == "ok"


def _oracle_outcome(entries, renormalize=False):
    ens = qsd.validate_ensemble(entries, renormalize=renormalize)
    return repr(qsd.oracle.minimax_common_point(ens)), outcome(lambda: qsd.solve_oracle(ens))


def assert_oracle_alike(entries, renormalize=False):
    """The oracle's solution by repr, and its result byte for byte, on both paths."""
    floats = _oracle_outcome(entries, renormalize)
    with vectorized():
        assert _oracle_outcome(entries, renormalize) == floats
    return floats


@pytest.mark.parametrize("n", range(2, FLOAT_ROWS + 2))
def test_oracle_answers_alike(n):
    # the pass, the pivots, the hull test and the measurement on the kept
    # floats against the numpy pass and arrays
    rng = np.random.default_rng(3000 + n)
    for _ in range(10):
        assert_oracle_alike(_entries(rng.dirichlet(np.ones(n)), ball_points(rng, n)))
        jitter = 1.0 + rng.uniform(-0.05, 0.05, size=n)
        assert_oracle_alike(_entries(jitter / jitter.sum(), sphere_points(rng, n)))
    weights = rng.uniform(0.2, 1.0, size=n)  # tied priors
    weights[: n // 2 + 1] = weights[0]
    _, solved = assert_oracle_alike(_entries(weights, ball_points(rng, n)), True)
    assert solved[0] == "ok"


def test_oracle_guess_regime_alike():
    entries = [(0.9, (0.0, 0.0, 0.5)), (0.05, (0.0, 0.0, 0.4)), (0.05, (0.3, 0.0, 0.0))]
    solution, solved = assert_oracle_alike(entries)
    assert "basis=(0,)" in solution and solved[0] == "ok"


def test_mirror_grid_solves_alike():
    for degrees in range(1, 90, 4):
        for p1 in np.arange(0.01, 0.5, 0.04).tolist():
            theta = math.radians(degrees)
            solved = assert_both_ways(lambda: qsd.solve_auto(qsd.mirror_ensemble(theta, p1)))
            assert solved[0] == "ok"
            assert_both_ways(lambda: qsd.solve_mirror_symmetric(theta, p1))


def test_near_guess_ensembles_solve_alike():
    rng = np.random.default_rng(4242)
    for _ in range(60):
        ens = near_guess_ensemble(rng)
        entries = _entries(ens.priors, ens.bloch_matrix)
        assert_both_ways(_solve(entries))
        assert_both_ways(lambda: qsd.solve_oracle(qsd.validate_ensemble(entries)))


@pytest.mark.parametrize("case", ERROR_TABLE + GATE_REJECTIONS, ids=lambda case: case[0])
def test_pinned_refusals_alike(case):
    call = case[1]
    if len(case) == 4:  # the gate's table holds assemble_result's arguments
        call = lambda: qsd.family.assemble_result(**case[1]())  # noqa: E731
    assert assert_both_ways(call)[0] != "ok"


_GOOD = [(0.5, (0.0, 0.0, 1.0)), (0.3, (0.6, 0.0, -0.2)), (0.2, (0.0, -0.7, 0.1))]


@pytest.mark.parametrize("bad", [_NAN, _INF, -_INF])
@pytest.mark.parametrize("k", range(3))
def test_non_finite_inputs_alike(bad, k):
    for renormalize in (False, True):
        entries = list(_GOOD)
        entries[k] = (bad, entries[k][1])
        assert_both_ways(lambda: qsd.validate_ensemble(entries, renormalize=renormalize))
        for axis in range(3):
            row = [0.0, 0.0, 0.0]
            row[axis] = bad
            entries = list(_GOOD)
            entries[k] = (entries[k][0], tuple(row))
            assert_both_ways(lambda: qsd.validate_ensemble(entries, renormalize=renormalize))
    # a NaN among the weights and conjugates: Python's max and min skip it
    # when it comes second, numpy's reductions never do
    conj = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.0, 0.0, 0.0)]
    weights = [1.0, 1.0, 0.0]
    weights[k] = bad
    with np.errstate(invalid="ignore"):  # the vectorized side multiplies inf by 0
        assert_both_ways(lambda: qsd.povm_from_weights(weights, conj))
        conj[k] = (bad, 0.0, 0.0)
        assert_both_ways(lambda: qsd.povm_from_weights([1.0, 1.0, 0.0], conj))
    ens = qsd.validate_ensemble(_GOOD)
    result = qsd.solve_auto(ens)
    good = result.certificate.conjugates
    # the solver's weights, whose POVM over the good conjugates is the result's
    weights = [2.0 * x for x in result.povm.a.tolist()]
    assert qsd.povm_from_weights(weights, good) == result.povm
    rows = good.tolist()
    rows[k][k % 3] = bad
    with np.errstate(invalid="ignore"):  # the vectorized side multiplies inf by 0
        for p, conjugates in ((result.p_opt, rows), (bad, good)):
            assert_both_ways(lambda: qsd.family.assemble_result(
                ens, p, result.certificate.common_point, conjugates, weights, result.method,
                directions=good))


_ULP = 2.0 ** -52


def _sqrt(row):
    x, y, z = row
    return math.sqrt(x * x + y * y + z * z)


def _directions(seed, count):
    return sphere_points(np.random.default_rng(seed), count).tolist()


def test_row_norms_round_as_the_float_norm():
    # bloch.row_norms is sqrt((x*x + y*y) + z*z), bit for bit, over 22 decades
    rng = np.random.default_rng(29)
    rows = rng.standard_normal((3000, 3)) * 10.0 ** rng.uniform(-11.0, 11.0, (3000, 3))
    assert qsd.bloch.row_norms(rows).tolist() == [_sqrt(row) for row in rows.tolist()]


def _fused_exactly(x, y, z):
    """fma(z, z, fma(y, y, x*x)) of finite floats, each step rounded once from its exact value."""
    s = x * x
    for a in (y, z):
        if s < _INF:
            try:
                s = float(Fraction(s) + Fraction(a) ** 2)
            except OverflowError:
                s = _INF
    return s


def _fused_rows():
    """Rows for fused_norm2, finite ones first: 22 decades, the split's far ranges, subnormals."""
    rng = np.random.default_rng(33)
    wide = rng.standard_normal((3000, 3)) * 10.0 ** rng.uniform(-11.0, 11.0, (3000, 3))
    extreme = rng.standard_normal((1000, 3)) * 10.0 ** rng.uniform(-323.0, 153.0, (1000, 3))
    overflowing = rng.standard_normal((300, 3)) * 10.0 ** rng.uniform(150.0, 170.0, (300, 3))
    subnormal = rng.integers(-2 ** 40, 2 ** 40, (300, 3)) * 5e-324
    zeros = [(sx * 0.0, sy * 0.0, sz * a) for sx in (1.0, -1.0) for sy in (1.0, -1.0)
             for sz in (1.0, -1.0) for a in (0.0, 0.7, 1e-200, 1e200)]
    finite = np.concatenate([wide, extreme, overflowing, subnormal]).tolist() + zeros
    specials = [_NAN, -_NAN, _INF, -_INF, 0.0, 2.0, 1e200]
    special = [(x, y, z) for x in specials for y in specials for z in specials
               if not all(map(math.isfinite, (x, y, z)))]
    return finite, special


def test_fused_norm2_rounds_as_numpys_dot():
    # fma(z, z, fma(y, y, x*x)): against its exact evaluation, which no
    # platform changes, and against this build's np.dot, the batched matmul
    # the three-state gaps took and the 1-D norm; NaN compares as NaN
    finite, special = _fused_rows()
    fused = [qsd.bloch.fused_norm2(*row) for row in finite + special]
    assert all(type(value) is float for value in fused)
    assert [repr(v) for v in fused[:len(finite)]] == [repr(_fused_exactly(*r)) for r in finite]
    assert _INF in fused[:len(finite)] and 0.0 < min(v for v in fused[:len(finite)] if v) < 1e-308
    rows = np.array(finite + special)
    with np.errstate(all="ignore"):
        dots = [float(np.dot(row, row)) for row in rows]
        batched = np.matmul(rows[:, None, :], rows[:, :, None]).ravel().tolist()
        norms = [float(np.linalg.norm(row)) for row in rows]
    assert list(map(repr, fused)) == list(map(repr, dots)) == list(map(repr, batched))
    assert list(map(repr, map(math.sqrt, fused))) == list(map(repr, norms))
    # a row whose sum of rounded squares from the left rounds otherwise
    x, y, z = 0.1, 0.1, 0.8
    assert qsd.bloch.fused_norm2(x, y, z) == 0.66 != x * x + y * y + z * z


def test_state_norms_at_the_bound_alike():
    # ulp steps across 1 + STATE_NORM_TOL: the float test is the vectorized
    # one, so both decide each row alike, and a record they accept keeps floats
    bound = 1.0 + STATE_NORM_TOL
    seen = set()
    for u in _directions(31, 40):
        for step in range(-8, 9):
            row = tuple(x * (bound + step * _ULP) for x in u)
            entries = [(0.4, row), (0.6, (0.0, 0.0, 0.5))]
            status, _ = assert_both_ways(lambda: qsd.validate_ensemble(entries))
            assert (status == "ok") == (_sqrt(row) <= bound)
            if status == "ok":
                assert "_floats" in vars(qsd.validate_ensemble(entries))
            seen.add(status)
    assert seen == {"ok", ValueError}


def _antipodes(u, scale):
    """The gate's arguments for the pure pair +-u at p = 1, its directions scaled by scale."""
    minus = tuple(-x for x in u)
    return dict(ensemble=qsd.validate_ensemble([(0.5, tuple(u)), (0.5, minus)]), p=1.0,
                common_point=(0.0, 0.0, 0.0), conjugates=(minus, tuple(u)), weights=(1.0, 1.0),
                method="two-state", directions=(tuple(scale * x for x in minus),
                                                tuple(scale * x for x in u)))


def test_psd_margin_alike():
    # the gate's pass builds elements a = 1/2 with |v| in ulp steps across
    # a + PSD_TOL, and decides each alike with the vectorized Povm checks
    seen = set()
    for u in _directions(37, 40):
        for step in range(-8, 9):
            arguments = _antipodes(u, 1.0 + 2.0 * PSD_TOL + step * _ULP)
            status, _ = assert_both_ways(lambda: qsd.family.assemble_result(**arguments))
            if status == "ok":
                result = qsd.family.assemble_result(**arguments)
                assert "_floats" in vars(result.povm)
            seen.add(status)
    assert seen == {"ok", ValueError}


def test_pure_mask_at_its_threshold_alike():
    # the guess on state 0 gives state 1 the conjugate (q_0 - q_1)/(p_0 - p_1),
    # here of norm 1 - PURITY_TOL to within a few ulps
    bound = 1.0 - PURITY_TOL
    seen = set()
    for u in _directions(41, 30):
        for step in range(-8, 9):
            scale = (0.5 * (bound + step * _ULP) - 0.25) / 0.75
            ens = [(0.75, tuple(scale * x for x in u)), (0.25, tuple(-x for x in u))]
            status, found = assert_both_ways(
                lambda: qsd.family.guess_result(qsd.validate_ensemble(ens), 0, "two-state"))
            assert status == "ok"
            row = np.frombuffer(found[3][0][3]).reshape(2, 3)[1].tolist()
            pure = np.frombuffer(found[3][3][3], dtype=bool)[1]
            assert pure == (_sqrt(row) >= bound)
            seen.add(bool(pure))
    assert seen == {True, False}


def test_degenerate_flag_at_its_threshold_alike():
    # p = (1 + |q_1 - q_0|)/2 just above the top prior 0.6: a success within
    # FLOAT_MARGIN of 0.6 + DEGENERACY_TOL takes the flag from numpy's sum,
    # whose rounding differs from the float sum's on some of these
    flags = set()
    for u, w in zip(_directions(43, 40), _directions(47, 40)):
        b0 = [0.3 * x for x in w]
        for step in range(-30, 30):
            dn = 0.2 + 2.0 * DEGENERACY_TOL + step * 2e-17
            b1 = tuple((0.6 * x + dn * y) / 0.4 for x, y in zip(b0, u))
            status, found = assert_both_ways(_solve([(0.6, tuple(b0)), (0.4, b1)]))
            if status == "ok":
                flags.add(found[3][-1])
    assert flags == {True, False}


def test_tiny_multipliers_clamp_alike():
    # p a few ulps above the top prior 0.6 leaves state 0 a multiplier of
    # about 1e-17, which both paths report as 0
    zeros = 0
    for step in range(0, 60):
        z = (0.2 + step * 1e-16) / 0.4
        status, found = assert_both_ways(_solve([(0.6, (0.0, 0.0, 0.0)), (0.4, (0.0, 0.0, z))]))
        assert status == "ok"
        zeros += float(found[1]) > 0.6 and found[3][2][3][:8] == bytes(8)
    assert zeros > 0


def _rebuilt(result):
    """The result's records rebuilt through the public constructors, from copies."""
    cert = result.certificate
    ens = result.ensemble
    return (
        HelstromCertificate(cert.p, cert.common_point, cert.conjugates.copy(),
                            cert.scaled_priors.copy(), cert.lambdas.copy(), cert.degenerate),
        Povm(result.povm.a.copy(), result.povm.v.copy()),
        WeightedEnsemble(ens.priors.copy(), ens.bloch_matrix.copy()),
    )


def test_gate_records_pass_the_public_constructors():
    # the gate stores its certificate through a private path with no checks
    # of its own; every record it hands out must pass the public ones
    rng = np.random.default_rng(77)
    results = []
    for n in range(2, FLOAT_ROWS + 3):
        for _ in range(25):
            entries = _entries(rng.dirichlet(np.ones(n)), ball_points(rng, n))
            ens = qsd.validate_ensemble(entries)
            results += [qsd.solve_auto(ens), qsd.solve_oracle(ens)]
    for _ in range(30):
        results.append(qsd.solve_auto(near_guess_ensemble(rng)))
    for degrees in range(2, 90, 7):
        results.append(qsd.solve_mirror_symmetric(math.radians(degrees), 0.02 + degrees / 200.0))
    for result in results:
        cert, povm, ens = _rebuilt(result)
        assert cert == result.certificate and cert.degenerate is result.certificate.degenerate
        assert povm == result.povm
        assert ens == result.ensemble
        assert fingerprint(ens) == fingerprint(result.ensemble)


_ARRAY_FIELDS = (
    ("ensemble", ("priors", "bloch_matrix", "weighted_points")),
    ("povm", ("a", "v")),
    ("certificate", ("common_point", "conjugates", "scaled_priors", "lambdas")),
)
_THREE_STATES = [
    _GOOD,  # boundary
    [(1.0 / 3.0, (math.cos(t), math.sin(t), 0.0)) for t in (0.0, 2.0944, 4.1888)],  # interior
    [(0.9, (0.0, 0.0, 0.1)), (0.05, (0.0, 0.1, 0.0)), (0.05, (0.1, 0.0, 0.0))],  # guess
]


def _built(result):
    """(record, field) of every array field the result's records have built."""
    return {(part, name) for part, names in _ARRAY_FIELDS for name in names
            if name in vars(getattr(result, part))}


@pytest.mark.parametrize("entries", _THREE_STATES, ids=["boundary", "interior", "guess"])
def test_float_path_builds_each_array_on_first_read(entries):
    with vectorized():
        expected = qsd.solve_auto(qsd.validate_ensemble(entries))
    for part, names in _ARRAY_FIELDS:
        for name in names:
            result = _solve(entries)()
            assert result.method.startswith("three-state")
            assert _built(result) == set()
            arr = getattr(getattr(result, part), name)
            assert _built(result) == {(part, name)}
            assert getattr(getattr(result, part), name) is arr
            assert not arr.flags.writeable
            assert _arrays(arr) == _arrays(getattr(getattr(expected, part), name))
    assert fingerprint(result) == fingerprint(expected)


def test_float_lists_match_the_arrays():
    rng = np.random.default_rng(5)
    for n in range(2, FLOAT_ROWS + 1):
        result = _solve(_entries(rng.dirichlet(np.ones(n)), ball_points(rng, n)))()
        ens, povm = result.ensemble, result.povm
        priors, bloch, weighted = ens.lists
        assert ens.held is ens.lists
        assert list(priors) == ens.priors.tolist()
        assert [list(row) for row in bloch] == ens.bloch_matrix.tolist()
        assert [list(row) for row in weighted] == ens.weighted_points.tolist()
        a, v = povm.lists
        assert list(a) == povm.a.tolist() and [list(row) for row in v] == povm.v.tolist()


# Arrays of at most FLOAT_ROWS rows take the float path as lists do, so a
# record's representation depends on its size, not on its caller's container.

_FIELDS = dict(_ARRAY_FIELDS)


def _keeps_floats(record, names):
    """True when the record keeps floats and has built none of its array fields."""
    return "_floats" in vars(record) and not set(names) & vars(record).keys()


def _stores_arrays(record, names):
    return "_floats" not in vars(record) and set(names) <= vars(record).keys()


def _ensemble_file(tmp_path, n):
    rng = np.random.default_rng(6000 + n)
    path = tmp_path / f"ensemble{n}.txt"
    lines = [f"{p!r} {x!r} {y!r} {z!r}\n"
             for p, (x, y, z) in _entries(rng.dirichlet(np.ones(n)), ball_points(rng, n))]
    path.write_text("# prior bx by bz\n" + "".join(lines), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("n", [3, FLOAT_ROWS, FLOAT_ROWS + 1])
def test_parsed_ensembles_keep_floats_up_to_float_rows(tmp_path, n):
    path = _ensemble_file(tmp_path, n)
    ens = qsd.cli.parse_ensemble_file(path)
    names = _FIELDS["ensemble"]
    if n > FLOAT_ROWS:
        assert _stores_arrays(ens, names)
    else:
        assert _keeps_floats(ens, names)
        arr = ens.bloch_matrix
        assert set(names) & vars(ens).keys() == {"bloch_matrix"} and not arr.flags.writeable
    with vectorized():
        expected = qsd.cli.parse_ensemble_file(path)
    assert _stores_arrays(expected, names)
    assert fingerprint(ens) == fingerprint(expected)


def _povm_arrays(n):
    """A complete POVM of n elements as arrays: a_k = 1/n, v_k opposite pairs."""
    rng = np.random.default_rng(7000 + n)
    a = np.full(n, 1.0 / n)
    v = 0.5 * a[:, None] * sphere_points(rng, n)
    v[1::2] = -v[0:n - n % 2:2]
    if n % 2:
        v[-1] = 0.0
    return a, v


@pytest.mark.parametrize("n", [3, FLOAT_ROWS, FLOAT_ROWS + 1])
def test_public_povms_store_arrays_at_every_size(n):
    # Povm(a, v) checks vectorized; only the gate's pass keeps a POVM's floats
    a, v = _povm_arrays(n)
    povm = Povm(a, v)
    names = _FIELDS["povm"]
    assert _stores_arrays(povm, names)
    assert all(not getattr(povm, name).flags.writeable for name in names)
    assert povm.lists == (a.tolist(), v.tolist())


def _shell_arrays(n):
    """Equiprobable priors and the rows of a cone (n states) or an octahedron (n = 6)."""
    if n == 6:
        rows = 0.8 * np.vstack([np.eye(3), -np.eye(3)])
    else:
        phis = 2.0 * np.pi * np.arange(n) / n
        rows = 0.9 * np.column_stack([np.sin(1.0) * np.cos(phis), np.sin(1.0) * np.sin(phis),
                                      np.full(n, np.cos(1.0))])
    return np.full(n, 1.0 / n), rows


def _diagonal_arrays(n):
    rng = np.random.default_rng(8000 + n)
    rows = np.zeros((n, 3))
    rows[:, 2] = rng.uniform(-1.0, 1.0, size=n)
    return rng.dirichlet(np.ones(n)), rows


_ARRAY_INPUTS = [
    ("two-state", lambda: (np.array([0.4, 0.6]), ball_points(np.random.default_rng(9), 2))),
    ("diagonal", lambda: _diagonal_arrays(5)),
    ("diagonal", lambda: _diagonal_arrays(FLOAT_ROWS + 1)),
    ("cone", lambda: _shell_arrays(5)),
    ("cone", lambda: _shell_arrays(FLOAT_ROWS + 1)),
    ("symmetric-shell", lambda: _shell_arrays(6)),
]


@pytest.mark.parametrize("method, arrays", _ARRAY_INPUTS,
                         ids=[f"{m}-{i}" for i, (m, _) in enumerate(_ARRAY_INPUTS)])
def test_solvers_given_arrays_keep_floats_up_to_float_rows(method, arrays):
    priors, rows = arrays()
    solve = lambda: qsd.solve_auto(WeightedEnsemble(priors, rows))  # noqa: E731
    result = solve()
    assert result.method == method
    for part, names in _ARRAY_FIELDS:
        record = getattr(result, part)
        if len(priors) > FLOAT_ROWS:
            assert _stores_arrays(record, names)
        else:
            assert "_floats" in vars(record)
    if len(priors) <= FLOAT_ROWS:
        # every closed form reads the kept floats
        for part, names in _ARRAY_FIELDS:
            assert _keeps_floats(getattr(result, part), names)
    with vectorized():
        expected = solve()
    assert fingerprint(result) == fingerprint(expected)


def float64_rows(rows):
    """rows as tuples of np.float64 scalars, which bloch.float_rows declines."""
    return [tuple(map(np.float64, row)) for row in rows]


# A record of at most FLOAT_ROWS rows that the float checks decline (rows of
# np.float64 scalars; no norm test declines a row of floats) stores arrays,
# held returns them, and the solvers that branch on held run their numpy
# code on it, to the same bytes.
_EDGE_INPUTS = [
    ("two-state", solve_auto, ([0.4, 0.6], float64_rows([(0.0, 0.0, 1.0), (0.3, 0.1, -0.2)]))),
    ("three-state-boundary", solve_auto,
     ([0.5, 0.3, 0.2], float64_rows([(1.0, 0.0, 0.0), (0.0, 0.6, -0.2), (0.0, -0.7, 0.1)]))),
    ("diagonal", solve_auto,
     ([0.5, 0.3, 0.2], float64_rows([(0.0, 0.0, 1.0), (0.0, 0.0, -0.4), (0.0, 0.0, 0.1)]))),
    ("symmetric-shell", solve_auto,
     ([1.0 / 6.0] * 6, float64_rows(np.vstack([np.eye(3), -np.eye(3)]).tolist()))),
    ("cone", solve_auto, ([0.25] * 4, float64_rows(
        [(0.6, 0.0, 0.5), (0.0, 0.6, 0.5), (-0.6, 0.0, 0.5), (0.0, -0.6, 0.5)]))),
    ("oracle", qsd.solve_oracle,
     ([0.3, 0.2, 0.25, 0.25],
      float64_rows([(0.0, 1.0, 0.0), (-0.4, 0.3, 0.1), (0.1, -0.6, 0.2), (0.0, 0.2, -0.7)]))),
]


@pytest.mark.parametrize("method, solve, arguments", _EDGE_INPUTS,
                         ids=[m for m, _, _ in _EDGE_INPUTS])
def test_records_declined_by_the_float_checks_solve_on_their_arrays(method, solve, arguments):
    priors, rows = arguments
    assert len(priors) <= FLOAT_ROWS
    assert qsd.bloch.float_rows(rows) is None
    ens = WeightedEnsemble(priors, rows)
    assert "_floats" not in vars(ens)
    assert all(isinstance(value, np.ndarray) for value in ens.held)
    status, found = assert_both_ways(lambda: solve(WeightedEnsemble(priors, rows)))
    assert status == "ok" and found[0] == method


def test_equiprobability_is_tested_on_the_kept_floats():
    # a jittered-pure ensemble is not equiprobable, and the oracle that
    # solves it reads the kept floats: nothing builds the priors array
    rng = np.random.default_rng(16)
    jitter = 1.0 + rng.uniform(-0.05, 0.05, size=16)
    ens = qsd.validate_ensemble(_entries(jitter / jitter.sum(), sphere_points(rng, 16)))
    assert qsd.solve_auto(ens).method == "oracle"
    assert "priors" not in vars(ens)


def test_cli_solve_takes_the_float_path(tmp_path, monkeypatch, capsys):
    accepted = []
    accept = WeightedEnsemble._accept_floats

    def spy(self, *args):
        accepted.append(accept(self, *args))
        return accepted[-1]

    monkeypatch.setattr(WeightedEnsemble, "_accept_floats", spy)
    path = _ensemble_file(tmp_path, 3)
    assert qsd.cli.main(["solve", path, "--format", "json"]) == 0
    assert accepted == [True]
    report = capsys.readouterr().out
    with vectorized():
        assert qsd.cli.main(["solve", path, "--format", "json"]) == 0
    assert capsys.readouterr().out == report


# ---------------------------------------------------------------------------
# The closed forms on floats: the diagonal pick, and the shell and cone probes
# and solver, whose norm means are numpy's pairwise sums


def _pairwise_inputs(n):
    rng = np.random.default_rng(9000 + n)
    scaled = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    cancelling = rng.uniform(1.0, 2.0, size=n) * 1e16
    cancelling[1::2] *= -1.0
    cancelling[::3] = rng.uniform(-1.0, 1.0, size=len(cancelling[::3]))
    mixed_zeros = rng.choice([-0.0, 0.0], size=n)
    return [
        rng.normal(size=n).tolist(),
        scaled.tolist(),
        cancelling.tolist(),
        [-0.0] * n,
        mixed_zeros.tolist(),
        [-0.0] * (n - 1) + [1e-300],
        (rng.integers(-50, 51, size=n) * 5e-324).tolist(),  # subnormals
        [0.1] * n,
        [1.0 / 3.0] * n,
        np.linalg.norm(sphere_points(rng, n) * rng.uniform(0.0, 1.0), axis=1).tolist(),
    ]


@pytest.mark.parametrize("n", range(1, FLOAT_ROWS + 1))
def test_pairwise_sum_is_numpys_sum_bit_for_bit(n):
    # n = 7, 8, 9, 15, 16, 17 sit around numpy's unroll width of 8
    for values in _pairwise_inputs(n):
        array = np.array(values)
        total = qsd.bloch.pairwise_sum(values)
        assert type(total) is float
        assert np.float64(total).tobytes() == np.add.reduce(array).tobytes(), values
        assert np.float64(total / n).tobytes() == array.mean().tobytes(), values
        assert qsd.bloch.pairwise_sum(tuple(values)) == total


def _cli_solve(path, method):
    out = io.StringIO()
    with redirect_stdout(out):
        code = qsd.cli.main(["solve", path, "--format", "json", "--method", method])
    return code, out.getvalue()


def assert_cli_alike(tmp_path, entries, method="auto"):
    """`qsd solve --format json` prints the same bytes, with the same exit code, on both paths."""
    path = tmp_path / "ensemble.txt"
    path.write_text("".join(f"{p!r} {x!r} {y!r} {z!r}\n" for p, (x, y, z) in entries),
                    encoding="utf-8")
    printed = _cli_solve(str(path), method)
    with vectorized():
        assert _cli_solve(str(path), method) == printed
    return printed


def _diagonal_ties(n):
    """Diagonal ensembles of n states with ties: tied priors, tied z among
    +-1, +-0.5 and +-0.0, off-axis signed zeros, up = down everywhere, the guess."""
    rng = np.random.default_rng(9500 + n)
    cases = []
    for t in range(12):
        raw = rng.integers(1, 4, size=n).astype(float) if t % 2 else rng.uniform(0.1, 1.0, size=n)
        z = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=n) if t % 3 else rng.uniform(-1, 1, size=n)
        x = -0.0 if t % 4 == 1 else 0.0
        cases.append(_entries(raw / raw.sum(), [(x, x, zz) for zz in z.tolist()]))
    cases.append(_entries(np.full(n, 1.0 / n), [(0.0, 0.0, 0.0)] * n))  # up = down
    poles = [(0.0, 0.0, 1.0 if k % 2 else -1.0) for k in range(n)]
    cases.append(_entries(np.full(n, 1.0 / n), poles))
    heavy = np.full(n, 0.1 / (n - 1))
    heavy[n // 2] = 0.9  # the guess regime
    cases.append(_entries(heavy, [(0.0, -0.0, 0.2 * (-1) ** k) for k in range(n)]))
    return cases


@pytest.mark.parametrize("n", [3, FLOAT_ROWS, FLOAT_ROWS + 1])
def test_diagonal_ties_solve_alike(tmp_path, n):
    guesses = 0
    for entries in _diagonal_ties(n):
        status, found = assert_both_ways(_solve(entries))
        assert status == "ok" and found[0] == "diagonal"
        assert assert_both_ways(
            lambda: qsd.solve_diagonal(qsd.validate_ensemble(entries)))[1] == found
        guesses += found[3][-1]
        code, report = assert_cli_alike(tmp_path, entries)
        assert code == 0 and '"method": "diagonal"' in report
    assert guesses >= 1


def _shells(n):
    """Equiprobable rows of one norm: cones (regular and random azimuths, on
    the axis, at the origin, on the equator) and a shell of random directions."""
    rng = np.random.default_rng(9700 + n)
    phis = rng.uniform(0.0, 2.0 * math.pi, size=n).tolist()
    cones = [qsd.cone_ensemble(n, 0.9, 1.0), qsd.cone_ensemble(n, 0.7, 2.0, phis),
             qsd.cone_ensemble(n, 0.6, 0.0), qsd.cone_ensemble(n, 0.0, 1.0),
             qsd.cone_ensemble(n, 0.8, 0.5 * math.pi)]
    rows = [_entries(ens.priors, ens.bloch_matrix) for ens in cones]
    return rows + [_entries(np.full(n, 1.0 / n), 0.75 * sphere_points(rng, n))]


_SHELL_SOLVERS = {
    "auto": qsd.solve_auto,
    "symmetric-shell": qsd.solve_symmetric_shell,
    "cone": lambda ens: qsd.closed_form.solve_with_method(ens, "cone"),
}


def _platonic_shells():
    return [_entries(ens.priors, ens.bloch_matrix)
            for ens, _ in (qsd.platonic_ensemble(qsd.PlatonicSolid(kind, 0.7))
                           for kind in qsd.PLATONIC_KINDS)]


@pytest.mark.parametrize("n", [3, FLOAT_ROWS, FLOAT_ROWS + 1, "platonic"])
def test_cones_and_shells_solve_alike(tmp_path, n):
    solved = []
    for entries in _platonic_shells() if n == "platonic" else _shells(n):
        for method, solve in _SHELL_SOLVERS.items():
            status, found = assert_both_ways(lambda: solve(qsd.validate_ensemble(entries)))
            solved.append(found[0] if status == "ok" else status)
            assert_cli_alike(tmp_path, entries, method)
    assert "symmetric-shell" in solved and ("cone" in solved) == (n != "platonic")


# ---------------------------------------------------------------------------
# The gate's one pass: on an ensemble that keeps floats it builds the POVM
# from the solver's weights and certifies it on floats, and hands whatever it
# cannot decide to povm_from_weights and the vectorized gate, so every
# refusal keeps its type and message

_PAIR = [(0.3, (0.6, 0.2, 0.7)), (0.7, (-0.1, 0.5, -0.4))]
_POLES = [(0.5, (0.0, 0.0, 1.0)), (0.5, (0.0, 0.0, -1.0))]
_UNIT = ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0))  # the poles' conjugates
_TIED = [(0.5, (0.0, 0.0, 0.0)), (0.5, (0.0, 0.0, 0.0))]
_ORIGIN = (0.0, 0.0, 0.0)


def _solved(entries, **changes):
    """assemble_result's arguments for solve_auto's answer, as floats, with changes."""
    ens = qsd.validate_ensemble(entries)
    result = qsd.solve_auto(ens)
    common_point, conjugates, _, _ = result.certificate.lists
    weights = [2.0 * a for a in result.povm.lists[0]]  # the solver's, which build its POVM
    args = dict(ensemble=ens, p=result.p_opt, common_point=common_point,
                conjugates=conjugates, weights=weights, method=result.method)
    return dict(args, **changes)


def _poles(**changes):
    args = dict(ensemble=qsd.validate_ensemble(_POLES), p=1.0, common_point=_ORIGIN,
                conjugates=_UNIT, weights=(1.0, 1.0), method="two-state")
    return dict(args, **changes)


def _tied(p):
    """The guess on a tied pair at ratio p: Pi_0 = I."""
    return dict(ensemble=qsd.validate_ensemble(_TIED), p=p, common_point=_ORIGIN,
                conjugates=(_ORIGIN, _ORIGIN), weights=(2.0, 0.0), method="two-state",
                directions=((-0.0, -0.0, -0.0),) * 2)


def _scaled(rows, s):
    return tuple(tuple(s * x for x in row) for row in rows)


def _third_weight(w):
    args = _solved(_GOOD)
    assert args["method"] == "three-state-boundary"
    weights = list(args["weights"])
    weights[weights.index(0.0)] = w
    return dict(args, weights=weights)


def _unbalanced(x):
    """The pair's weights 1 +- x/|c_1|, so that |sum v| = x."""
    args = _solved(_PAIR)
    h = math.hypot(*args["conjugates"][0])
    return dict(args, weights=(1.0 + x / h, 1.0 - x / h))


def _shifted(x):
    args = _solved(_PAIR)
    rx, ry, rz = args["common_point"]
    return dict(args, common_point=(rx, ry, rz + x))


_M = 0.5 * FLOAT_MARGIN
_X0 = 0.5 / (1.0 + RATIO_SLACK)  # where the tied guess's scaled prior 0.5/p reaches its bound
_OK, _V, _C = "ok", ValueError, qsd.CertificateError
# (bound, arguments for x, x just inside the bound, within FLOAT_MARGIN of it
# on either side, and outside it, with the outcome of each)
_BOUNDS = [
    ("weight-sign", _third_weight, (-NEG_WEIGHT_TOL / 2, -NEG_WEIGHT_TOL + _M,
                                    -NEG_WEIGHT_TOL - _M, -2 * NEG_WEIGHT_TOL), (_OK, _OK, _V, _V)),
    ("psd", lambda x: _poles(directions=_scaled(_UNIT, 1.0 + x)),  # a - |v| = -x/2
     (PSD_TOL / 2, PSD_TOL - _M, PSD_TOL + _M, 4 * PSD_TOL), (_OK, _OK, _OK, _V)),
    ("sum-a", lambda x: _solved(_PAIR, weights=(1.0 + x, 1.0 + x)),
     (COMPLETENESS_TOL / 2, COMPLETENESS_TOL - _M, COMPLETENESS_TOL + _M, 2 * COMPLETENESS_TOL),
     (_OK, _OK, _V, _V)),
    ("sum-v", _unbalanced,
     (COMPLETENESS_TOL / 2, COMPLETENESS_TOL - _M, COMPLETENESS_TOL + _M, 2 * COMPLETENESS_TOL),
     (_OK, _OK, _V, _V)),
    ("conjugate-norm", lambda x: _poles(conjugates=_scaled(_UNIT, 1.0 + x), directions=_UNIT),
     (BALL_SLACK / 2, BALL_SLACK - _M, BALL_SLACK + _M, 2 * BALL_SLACK), (_OK, _OK, _C, _C)),
    ("family-residual", _shifted,
     (FAMILY_TOL / 2, FAMILY_TOL - _M, FAMILY_TOL + _M, 2 * FAMILY_TOL), (_OK, _OK, _C, _C)),
    ("success-gap", lambda x: _poles(directions=_scaled(_UNIT, 1.0 - 2.0 * x)),  # gap x
     (SUCCESS_TOL / 2, SUCCESS_TOL - _M, SUCCESS_TOL + _M, 2 * SUCCESS_TOL), (_OK, _OK, _C, _C)),
    ("scaled-prior", _tied, (0.5, _X0 + _M, _X0 - _M, 0.5 - 9e-13), (_OK, _OK, _V, _V)),
    ("p-below-top-prior", _tied, (0.5, 0.5 - RATIO_SLACK + _M, 0.5 - RATIO_SLACK - _M,
                                  0.5 - 2 * RATIO_SLACK), (_OK, _V, _C, _C)),
    ("p-above-one", lambda x: _poles(p=1.0 + x),
     (RATIO_SLACK / 2, RATIO_SLACK - _M, RATIO_SLACK + _M, 2 * RATIO_SLACK), (_OK, _OK, _V, _V)),
]


# the bounds on sums that numpy adds in another order, which the pass must
# clear by FLOAT_MARGIN; every other test it decides up to the bound
_SUMS = {"sum-v", "success-gap"}


@pytest.mark.parametrize("name, arguments, xs, expected", _BOUNDS,
                         ids=[case[0] for case in _BOUNDS])
def test_the_gates_pass_refuses_alike_at_each_bound(name, arguments, xs, expected):
    for k, (x, status) in enumerate(zip(xs, expected)):
        found = assert_both_ways(lambda: qsd.family.assemble_result(**arguments(x)))
        assert found[0] == status, (x, found)
        if status == _OK and (k == 0 or name not in _SUMS):
            # the pass decides what it accepts, and the records keep floats
            result = qsd.family.assemble_result(**arguments(x))
            assert "_floats" in vars(result.povm) and "_floats" in vars(result.certificate)


# inputs the pass leaves to the vectorized code as they are: not rows of Python floats
_MALFORMED = [
    ("integer-common-point", lambda: dict(_tied(0.5), common_point=(0, 0, 0))),
    ("integer-weights", lambda: _poles(weights=(1, 1))),
    ("array-row", lambda: _poles(conjugates=[np.array(_UNIT[0]), _UNIT[1]])),
    ("short-row", lambda: _poles(conjugates=(_UNIT[0], _UNIT[1][:2]))),
    ("short-direction", lambda: _poles(directions=(_UNIT[0][:2], _UNIT[1]))),
    ("set-row", lambda: _poles(conjugates=(_UNIT[0], {0.0, 1.0}))),
    ("extra-weight", lambda: _poles(weights=(1.0, 1.0, 0.0))),
]


@pytest.mark.parametrize("arguments", [case[1] for case in _MALFORMED],
                         ids=[case[0] for case in _MALFORMED])
def test_the_gates_pass_leaves_other_inputs_to_the_vectorized_code(arguments):
    found = assert_both_ways(lambda: qsd.family.assemble_result(**arguments()))
    if found[0] == "ok":
        result = qsd.family.assemble_result(**arguments())
        assert "_floats" not in vars(result.certificate)


_ONE_PASS = [
    ("three-state-boundary", qsd.solve_auto, _GOOD),
    ("two-state", qsd.solve_auto, _PAIR),
    ("diagonal", qsd.solve_auto,
     [(0.5, (0.0, 0.0, 0.8)), (0.3, (0.0, 0.0, -0.5)), (0.2, (0.0, 0.0, 0.1))]),
    ("oracle", qsd.solve_oracle,
     [(0.3, (0.5, 0.1, 0.2)), (0.2, (-0.4, 0.3, 0.1)), (0.25, (0.1, -0.6, 0.2)),
      (0.25, (0.0, 0.2, -0.7))]),
]


@pytest.mark.parametrize("method, solve, entries", _ONE_PASS, ids=[m for m, _, _ in _ONE_PASS])
def test_a_solve_builds_and_certifies_its_povm_in_one_pass(monkeypatch, method, solve, entries):
    # bloch.float_rows reads the ensemble's rows and nothing else, no Povm or
    # certificate runs its constructor, and no record builds an array
    seen, constructed = [], []
    float_rows = qsd.bloch.float_rows
    monkeypatch.setattr(qsd.bloch, "float_rows", lambda rows: seen.append(rows) or float_rows(rows))
    for record in (Povm, HelstromCertificate):
        init = record.__init__
        monkeypatch.setattr(record, "__init__", lambda self, *args, init=init: (
            constructed.append(type(self)), init(self, *args))[1])
    result = solve(qsd.validate_ensemble(entries))
    assert result.method == method
    assert seen == [[row for _, row in entries]]
    assert constructed == []
    assert _built(result) == set()
    assert all("_floats" in vars(getattr(result, part)) for part, _ in _ARRAY_FIELDS)
    with vectorized():
        expected = solve(qsd.validate_ensemble(entries))
    assert fingerprint(result) == fingerprint(expected)


class _NoNumpy:
    """A stand-in numpy with no attribute: any read raises."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} on the float path")


def _seeded(n, seed, diagonal=False):
    """n states with distinct priors, in the ball or on the z axis, as Python floats."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, size=n)
    rows = ball_points(rng, n)
    if diagonal:
        rows[:, :2] = 0.0
    return _entries(weights / weights.sum(), rows)


# (method, degenerate, entries): the triples' interior roots fail their
# screens before the interior candidate's lstsq, which still runs in numpy
_NO_NUMPY = [
    ("two-state", False, _PAIR),
    ("three-state-boundary", False,
     [(0.3, (0.0, 0.0, 1.0)), (0.3, (0.0, 0.0, -1.0)), (0.4, (0.1, 0.0, 0.0))]),
    ("three-state-boundary", True,
     [(0.2, (0.1, 0.0, 0.1)), (0.2, (0.0, 0.1, 0.0)), (0.6, (0.0, 0.0, 0.2))]),
    ("diagonal", False, _seeded(FLOAT_ROWS, 34, diagonal=True)),
    ("oracle", False, _seeded(FLOAT_ROWS, 34)),
]


@pytest.mark.parametrize("method, degenerate, entries", _NO_NUMPY,
                         ids=["two-state", "boundary", "guess", "diagonal", "general"])
def test_small_solves_call_no_numpy(monkeypatch, method, degenerate, entries):
    expected = fingerprint(qsd.solve_auto(qsd.validate_ensemble(entries)))
    with monkeypatch.context() as patched:
        for module in (qsd.bloch, qsd.family, qsd.closed_form, qsd.oracle):
            patched.setattr(module, "np", _NoNumpy())
        result = qsd.solve_auto(qsd.validate_ensemble(entries))
    assert (result.method, result.certificate.degenerate) == (method, degenerate)
    assert fingerprint(result) == expected


class _Rows(tuple):
    """A tuple subclass: its type is not list, tuple or ndarray, so the float path declines it."""


def test_other_sequence_types_take_the_vectorized_checks():
    # the float path tests a value's type against list and tuple, then
    # against numpy's array; any other type, a tuple subclass among them,
    # goes to the vectorized checks, which store the same bytes
    entries = [(0.3, (0.5, 0.1, 0.2)), (0.7, (-0.4, 0.3, 0.1))]
    priors, rows = [p for p, _ in entries], [row for _, row in entries]
    assert qsd.bloch.float_rows(_Rows(rows)) is None
    assert qsd.bloch.float_values(_Rows(priors)) is None
    ens = WeightedEnsemble(_Rows(priors), _Rows(rows))
    assert _stores_arrays(ens, _FIELDS["ensemble"])
    assert fingerprint(ens) == fingerprint(qsd.validate_ensemble(entries))


def test_integer_coordinates_take_the_float_path():
    # an int coordinate is taken through float(): the record keeps floats and
    # solves as the same ensemble written with floats does, and as the arrays do
    ints = [(0.3, (0.5, 0.1, 0.2)), (0.2, (-0.4, 0.3, 0.1)), (0.25, (0.1, -0.6, 0.2)),
            (0.25, (0, 0.2, -0.7))]
    floats = [(p, tuple(float(x) for x in row)) for p, row in ints]
    ens = qsd.validate_ensemble(ints)
    assert _keeps_floats(ens, _FIELDS["ensemble"])
    assert fingerprint(ens) == fingerprint(qsd.validate_ensemble(floats))
    found = assert_both_ways(lambda: qsd.solve_auto(qsd.validate_ensemble(ints)))
    assert found == outcome(lambda: qsd.solve_auto(qsd.validate_ensemble(floats)))
    assert found[0] == "ok" and found[1][0] == "oracle"
    for bad in (True, 10 ** 400):  # a bool or an int too large for a float: the vectorized checks
        entries = ints[:3] + [(0.25, (bad, 0.2, -0.7))]
        assert_both_ways(lambda: qsd.validate_ensemble(entries))
