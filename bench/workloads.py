"""The closed loop: one client sends one request, waits for the answer, sends the next.

`three-state` and `general` requests are raw ``(prior, bloch)`` tuples, solved
as ``solve_auto(validate_ensemble(entries))``. `structured-cli` requests are
ensemble files, solved by an in-process ``qsd.cli.main(["solve", path,
"--format", "json"])`` with stdout captured. Functions are looked up on their
module at call time, so a tracer installed later sees every call.

Only the request is timed. Writing input files, reading the answer and the
independent check all happen between requests. Right after each request, also
outside the timed region, a fixed reference computation is timed, so that each
latency can be read against the machine's speed at that moment (see
`reference.py`).
"""

from __future__ import annotations

import io
import json
import os
from array import array
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import qsd
import qsd.cli

import corpus
from certcheck import Answer, check_answer
from reference import REFERENCE_S, time_reference

# One per method tag a result can carry (qsd.bloch.METHODS).
METHOD_TAGS = (
    "two-state",
    "three-state-boundary",
    "three-state-interior",
    "symmetric-shell",
    "diagonal",
    "cone",
    "mirror-symmetric",
    "oracle",
)


class CliFailure(Exception):
    """The CLI returned a nonzero exit code."""


class Tally:
    """Per-op results: latencies and reference times in flat arrays, failures,
    and optionally answers.

    Untraced runs keep no answers, so the benchmark's own memory barely grows
    with the number of ops and peak RSS stays a property of the program.
    """

    def __init__(self, keep_answers: bool = False):
        self.seconds = array("d")
        self.reference = array("d")  # time_reference() right after each op
        self.round_starts: list = []  # op index at which each timed round begins
        self.failures: list = []  # (op index, label, problems)
        self.answers: list | None = [] if keep_answers else None  # (method, p) or None

    def __len__(self) -> int:
        return len(self.seconds)

    def rounds(self) -> list:
        """Latencies in seconds, one list per timed round."""
        bounds = self.round_starts + [len(self.seconds)]
        return [self.seconds[a:b].tolist() for a, b in zip(bounds, bounds[1:])]

    def normalized(self) -> list:
        """Per-op latencies in seconds at the speed where time_reference() gives REFERENCE_S."""
        return [REFERENCE_S * s / r for s, r in zip(self.seconds, self.reference)]

    def add(self, label: str, seconds: float, reference: float, answer: Answer | None,
            problems: list) -> None:
        if problems:
            self.failures.append((len(self.seconds), label, problems))
        self.seconds.append(seconds)
        self.reference.append(reference)
        if self.answers is not None:
            self.answers.append(None if answer is None else (answer.method, answer.p))


def solve_direct(entries):
    return qsd.solve_auto(qsd.validate_ensemble(entries))


def solve_cli(path: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = qsd.cli.main(["solve", path, "--format", "json"])
    if code != 0:
        raise CliFailure(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def answer_from_result(result) -> Answer:
    return Answer(
        result.method,
        result.p_opt,
        tuple(result.certificate.common_point),
        tuple((e.a, tuple(e.v)) for e in result.povm.elements),
    )


def answer_from_json(text: str) -> Answer:
    report = json.loads(text)
    return Answer(
        report["method"],
        report["p_opt"],
        tuple(report["common_point"]),
        tuple((s["povm_a"], tuple(s["povm_v"])) for s in report["states"]),
    )


def write_ensemble(path: str, entries) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# prior bx by bz\n")
        for prior, (x, y, z) in entries:
            handle.write(f"{prior!r} {x!r} {y!r} {z!r}\n")


class Runner:
    """Turns corpus items into requests for one workload, and solves them."""

    def __init__(self, workload: str, seed: int, workdir: str | None = None):
        self.workload = workload
        self.seed = seed
        self.cli = workload == "structured-cli"
        if self.cli and workdir is None:
            raise ValueError("structured-cli needs a directory for its ensemble files")
        self.workdir = workdir
        self._files = 0

    def prepare(self, items) -> list:
        """(item, request) pairs; for the CLI this writes one file per item."""
        if not self.cli:
            return [(item, item.entries) for item in items]
        pairs = []
        for item in items:
            path = os.path.join(self.workdir, f"{self._files:06d}-{item.label}.txt")
            write_ensemble(path, item.entries)
            self._files += 1
            pairs.append((item, path))
        return pairs

    def solve(self, request):
        return solve_cli(request) if self.cli else solve_direct(request)

    def answer(self, output) -> Answer:
        return answer_from_json(output) if self.cli else answer_from_result(output)


def run_ops(runner: Runner, prepared, tally: Tally, tracer=None) -> None:
    """Solve each request once, timing only the solve and then the reference
    computation; check every answer."""
    for item, request in prepared:
        start = perf_counter()
        try:
            output = runner.solve(request)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            output = exc
        seconds = perf_counter() - start
        reference = time_reference()
        if tracer is not None:
            tracer.end_op()
        if isinstance(output, Exception):
            tally.add(item.label, seconds, reference, None, [f"{type(output).__name__}: {output}"])
            continue
        try:
            answer = runner.answer(output)
        except (KeyError, TypeError, ValueError) as exc:
            tally.add(item.label, seconds, reference, None, [f"unreadable answer: {exc!r}"])
            continue
        tally.add(item.label, seconds, reference, answer, check_answer(item.entries, answer))


def measure(runner: Runner, seconds: float, tally: Tally, after_round=None) -> None:
    """Whole rounds until `seconds` of wall time have passed since the first began.

    The wall time includes everything between the timed solves, so a run
    takes about as long whatever the workload and the machine's speed.
    `after_round`, when given, is called with each round's (item, request)
    pairs once the round is solved.
    """
    deadline = perf_counter() + seconds
    k = 0
    while not k or perf_counter() < deadline:
        prepared = runner.prepare(corpus.round_items(runner.workload, runner.seed, k))
        tally.round_starts.append(len(tally))
        run_ops(runner, prepared, tally)
        if after_round is not None:
            after_round(prepared)
        k += 1
