"""Tests for the benchmark itself: corpus, independent check, tracer, workloads, output.

Run from the repository root:  python -m pytest bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import qsd  # noqa: E402
import qsd.bloch  # noqa: E402

import corpus  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from certcheck import check_answer  # noqa: E402


def test_corpus_is_deterministic_per_seed():
    for workload in corpus.WORKLOADS:
        assert corpus.round_items(workload, 7, 0) == corpus.round_items(workload, 7, 0)
        assert corpus.round_items(workload, 7, 2) == corpus.round_items(workload, 7, 2)
        assert corpus.warmup_items(workload, 7) == corpus.warmup_items(workload, 7)
        assert corpus.round_items(workload, 7, 0) != corpus.round_items(workload, 8, 0)


def test_corpus_has_no_duplicate_ensembles():
    for workload in corpus.WORKLOADS:
        seen = [item.entries for item in corpus.warmup_items(workload, 7)]
        for k in range(3):
            seen += [item.entries for item in corpus.round_items(workload, 7, k)]
        assert len(set(seen)) == len(seen), workload


def test_every_round_has_the_same_mix():
    for workload in ("general", "structured-cli"):
        mix = sorted(item.label for item in corpus.round_items(workload, 1, 0))
        for seed, k in ((1, 1), (2, 0), (3, 5)):
            assert sorted(item.label for item in corpus.round_items(workload, seed, k)) == mix


def test_inputs_are_valid_ensembles():
    for workload in corpus.WORKLOADS:
        for item in corpus.round_items(workload, 4, 0):
            qsd.validate_ensemble(item.entries)


def _solved(items):
    return [(item.entries, wl.answer_from_result(wl.solve_direct(item.entries))) for item in items]


@pytest.fixture(scope="module")
def solved():
    three = corpus.round_items("three-state", 5, 0)[:40]
    structured = [
        item for item in corpus.round_items("structured-cli", 5, 0)
        if item.label in ("two-state", "mirror", "cube", "cone-5", "diagonal-7")
    ]
    pairs = _solved(three + structured)
    methods = {answer.method for _, answer in pairs}
    assert {"oracle", "three-state-boundary", "diagonal", "cone", "symmetric-shell"} <= methods
    return pairs


def test_checker_accepts_real_results(solved):
    for entries, answer in solved:
        assert check_answer(entries, answer) == []


def test_checker_rejects_a_raised_value(solved):
    for entries, answer in solved:
        problems = check_answer(entries, answer._replace(p=answer.p + 1e-6))
        assert any("success" in p for p in problems)


def test_checker_rejects_a_non_psd_element(solved):
    # Shift vector weight from element 1 to element 0: the sum stays I, but
    # element 0 gets |v| > a.
    for entries, answer in solved:
        (a0, v0), (a1, v1) = answer.elements[:2]
        push = a0 + math.hypot(*v0) + 0.01
        elements = (
            (a0, (v0[0] + push, v0[1], v0[2])),
            (a1, (v1[0] - push, v1[1], v1[2])),
        ) + answer.elements[2:]
        problems = check_answer(entries, answer._replace(elements=elements))
        assert any("POVM element" in p for p in problems)
        assert not any("sum of POVM" in p for p in problems)


def test_checker_rejects_a_moved_common_point(solved):
    # Move r 1e-3 further from the weighted point of an active state, so that
    # p - p_i < |r - q_i| and Y - p_i rho_i has a negative eigenvalue.
    for entries, answer in solved:
        r = answer.r
        slack = []
        for prior, b in entries:
            q = [prior * x for x in b]
            slack.append((prior + math.dist(r, q), q))
        _, q = max(slack)
        away = [ri - qi for ri, qi in zip(r, q)]
        norm = math.hypot(*away)
        unit = [x / norm for x in away] if norm > 1e-9 else [1.0, 0.0, 0.0]
        moved = tuple(ri + 1e-3 * u for ri, u in zip(r, unit))
        problems = check_answer(entries, answer._replace(r=moved))
        assert any("Y - p_i rho_i" in p for p in problems)


def test_method_tags_match_the_library():
    assert set(wl.METHOD_TAGS) == set(qsd.bloch.METHODS)


def test_normalized_time_scales_each_op_by_its_reference():
    tally = wl.Tally()
    tally.add("a", 0.002, 2.0 * wl.REFERENCE_S, None, [])
    tally.add("b", 0.003, 0.5 * wl.REFERENCE_S, None, [])
    assert tally.normalized() == pytest.approx([0.001, 0.006])


def _traced_modules(fn_name):
    return [
        mod for name, mod in sys.modules.items()
        if (name == "qsd" or name.startswith("qsd.")) and fn_name in vars(mod)
    ]


def test_tracer_wraps_every_binding_and_restores_them():
    original = qsd.closed_form.assemble_result
    solve_auto = qsd.closed_form.solve_auto
    holders = _traced_modules("assemble_result")
    assert {m.__name__ for m in holders} >= {"qsd", "qsd.family", "qsd.closed_form", "qsd.oracle"}
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrappers = {id(vars(m)["assemble_result"]) for m in holders}
        assert len(wrappers) == 1
        assert vars(holders[0])["assemble_result"] is not original
        assert qsd.cli.solve_auto is qsd.closed_form.solve_auto is qsd.solve_auto
        assert qsd.cli.solve_auto.__wrapped__ is solve_auto
    finally:
        tracer.uninstall()
    assert all(vars(m)["assemble_result"] is original for m in holders)


def test_wrappers_reraise_and_count_errors():
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            qsd.validate_ensemble([(1.5, (0.0, 0.0, 0.0)), (0.5, (0.0, 0.0, 1.0))])
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics = tracer.per_op_metrics({})
    assert metrics["bloch.validate_ensemble.calls"][0] == 1
    assert metrics["bloch.validate_ensemble.errors"][0] == 1


def test_self_times_add_up_to_the_root_spans():
    tracer = spans.Tracer()
    tracer.install()
    try:
        for item in corpus.round_items("three-state", 9, 0)[:30]:
            wl.solve_direct(item.entries)
            tracer.end_op()
    finally:
        tracer.uninstall()
    metrics = tracer.per_op_metrics({})
    self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s")) * tracer.op
    root_total = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    assert self_total == pytest.approx(root_total, rel=1e-9)
    assert all(v >= 0.0 for k, (v, _) in metrics.items() if k.endswith(".self_s"))


def _two_passes(runner, items):
    prepared = runner.prepare(items)
    base, traced = wl.Tally(keep_answers=True), wl.Tally(keep_answers=True)
    wl.run_ops(runner, prepared, base)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wl.run_ops(runner, prepared, traced, tracer)
    finally:
        tracer.uninstall()
    return prepared, base, traced, tracer


@pytest.mark.parametrize("workload", ["three-state", "structured-cli"])
def test_traced_and_untraced_agree_op_for_op(workload, tmp_path):
    runner = wl.Runner(workload, 3, str(tmp_path))
    _, base, traced, tracer = _two_passes(runner, corpus.round_items(workload, 3, 0)[:60])
    assert not base.failures and not traced.failures
    assert base.answers == traced.answers
    assert tracer.op == len(traced)


def test_structured_cli_skips_the_oracle(tmp_path):
    runner = wl.Runner("structured-cli", 2, str(tmp_path))
    prepared, _, traced, tracer = _two_passes(runner, corpus.round_items("structured-cli", 2, 0))
    assert not traced.failures
    labels = {s.op: prepared[s.op][0].label for s in tracer.spans}
    assert set(labels.values()) == {item.label for item, _ in prepared}
    oracle_ops = {labels[s.op] for s in tracer.spans if s.name == "oracle.minimax_common_point"}
    # Known gap: near-collinear mirror triples in the interior regime can fail
    # the three-state gate and fall back to the oracle (about 3% of draws).
    assert oracle_ops <= {"mirror"}


def test_every_general_op_is_an_oracle_solve():
    for entries, answer in _solved(corpus.round_items("general", 6, 0)):
        assert answer.method == "oracle"
        assert check_answer(entries, answer) == []


def _run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_run_prints_every_declared_metric(workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    done = _run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = done.stdout.strip().splitlines()[:-1]
    for name, unit in expected.items():
        assert any(line.split()[1:2] == [name] and line.endswith(unit) for line in report), name


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    done = _run_bench(tmp_path, "three-state", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
