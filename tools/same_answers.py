"""Check that two checkouts give the same answers on a fixed set of inputs.

    python tools/same_answers.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout is a directory holding src/qsd. Each is solved in its own
child interpreter, on inputs drawn the same way for both:

  three-state, general, structured-cli   the bench corpora, seeds 1-3,
                                         rounds 0-2, through solve_auto
  cli                                    every structured-cli input through
                                         `qsd solve FILE --format json`
  verify                                 every structured-cli input and the
                                         POVM the checkout solves for it,
                                         written with repr floats, through
                                         `qsd verify FILE POVM --format
                                         json`; for the first BROKEN_ITEMS
                                         inputs of each round, also that
                                         POVM broken: one element's |v|
                                         past a by 1e-6 (psd) and by 0.75
                                         PSD_TOL (near-psd), and every
                                         element scaled by 1 + 1e-9
                                         (incomplete)
  platonic                               the five Platonic shells at scales
                                         0.3, 0.7 and 1.0, through
                                         solve_auto, solve_symmetric_shell
                                         and the `cone` method
  cone                                   3,000 seeded cones (n = 3..39,
                                         b in [0, 1], theta in [0, pi], every
                                         other one with random azimuths),
                                         through solve_auto and solve_cone
  mirror                                 the mirror grid, theta = 1..89
                                         degrees and p1 = 0.01..0.49, through
                                         solve_auto and solve_mirror_symmetric
  corner                                 CORNER_DRAWS seeded mirror triples
                                         near a right angle, theta in [80, 90)
                                         degrees and p1 in [0.001, 0.2],
                                         through solve_auto and solve_oracle:
                                         the oracle's exits there tie within
                                         rounding, which the grid's whole
                                         degrees reach only coarsely
  diagonal                               DIAGONAL_DRAWS seeded ensembles on the
                                         z axis, n = 3..40, with tied priors,
                                         z tied among +-1, +-0.5 and +-0.0,
                                         off-axis signed zeros and every fifth
                                         in the guess regime, through
                                         solve_auto, solve_diagonal and `qsd
                                         solve FILE --format json`: the bench
                                         corpora draw continuous z and rarely
                                         tie, and ties decide which pair wins
  oracle                                 seeded mixed and jittered-pure
                                         ensembles (the general workload's
                                         classes), 20 of each at every n =
                                         2..40, through solve_oracle: both
                                         sides of bloch.FLOAT_ROWS, which the
                                         bench corpora (n <= 20) need not span
  two-state                              TWO_STATE_DRAWS seeded pairs, through
                                         solve_auto, solve_two_state and `qsd
                                         solve FILE --format json`: coincident
                                         weighted points with tied and untied
                                         priors, |q_2 - q_1| a few ulps and
                                         1e-12 and 1e-9 either side of
                                         |p_2 - p_1| (the guess regime's
                                         edge), rows of signed zeros, and
                                         random pairs; the bench corpora
                                         rarely reach the first three

The corpora come from the bench/ next to this script, read and never
written. For each input the tool keeps the method tag, the type of any
exception, p_opt and a hash of the bytes of the POVM, of the
certificate (p, common point, conjugates, scaled priors, multipliers, pure
mask and the degenerate flag) and of the result's ensemble (priors, Bloch
matrix, weighted points and largest prior); for the CLI, of the JSON
report less its input paths, and for `qsd verify` also of its exit code
and its standard error, where the exit code stands for the exception
type. It prints the tag changes, exception-type
changes, the largest |delta p_opt| and how many inputs of each set moved
their bytes, then a verdict with the line count of each checkout's src/qsd
(newlines in its .py files, as wc -l counts them) and its count of named
tolerances (named_tolerances), naming each tolerance that one checkout
has and the other lacks (-NAME dropped, +NAME added). The exit code is 1 on
any tag or exception-type change or on |delta p_opt| > 1e-12, and 0
otherwise. Uses the standard library and numpy only.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
BENCH = TOOLS.parent / "bench"

P_TOL = 1e-12
BENCH_SEEDS = (1, 2, 3)
BENCH_ROUNDS = (0, 1, 2)
PLATONIC_SCALES = (0.3, 0.7, 1.0)
CONE_DRAWS = 3000
CONE_SEED = 2026
CORNER_DRAWS = 3000
CORNER_SEED = 99
DIAGONAL_DRAWS = 400
DIAGONAL_SEED = 2028
DIAGONAL_Z = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)
ORACLE_SIZES = range(2, 41)
ORACLE_DRAWS = 20
ORACLE_SEED = 2027
BROKEN_ITEMS = 3
TWO_STATE_DRAWS = 600
TWO_STATE_SEED = 2029
EDGE_STEPS = (-1e-9, -1e-12, -4 * 2.0 ** -52, -2.0 ** -52, 0.0, 2.0 ** -52, 4 * 2.0 ** -52,
              1e-12, 1e-9)

# the child puts the checkout's src and bench/ first, then collects
CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:4]; "
    "import same_answers; same_answers.collect()"
)


def _digest(*parts: bytes) -> str:
    return hashlib.sha256(b"".join(parts)).hexdigest()[:16]


def named_tolerances() -> list:
    """The sorted names of the named tolerances the qsd on sys.path defines, one per tolerance.

    A named tolerance is a module-level float in (0, 1e-6) of a qsd
    module, counted once per name and object, so a module that imports
    another's constant adds nothing: the rule of
    tests/test_imports.py::test_every_tolerance_is_a_row_of_the_bloch_table.
    """
    import importlib
    import pkgutil

    import qsd

    modules = [qsd] + [importlib.import_module(f"qsd.{info.name}")
                       for info in pkgutil.iter_modules(qsd.__path__)]
    return sorted(name for name, _ in {
        (name, id(value)) for module in modules for name, value in vars(module).items()
        if type(value) is float and 0.0 < value < 1e-6})


def two_state_pair(rng, i: int) -> list:
    """Draw i of the two-state set (module docstring) as (prior, state) pairs of floats."""
    import numpy as np

    def ball(radius):
        u = rng.standard_normal(3)
        return (u / np.linalg.norm(u) * radius * rng.uniform() ** (1.0 / 3.0)).tolist()

    kind = i % 4
    if kind == 0:  # coincident weighted points: at the origin, or p_1 b_1 = p_2 b_2
        p1 = 0.5 if i % 8 == 0 else float(rng.uniform(0.5, 0.75))
        b1 = [0.0, -0.0, 0.0] if i % 3 == 0 else ball((1.0 - p1) / p1)
        b2 = [p1 * x / (1.0 - p1) for x in b1]
    elif kind == 1:  # |q_2 - q_1| at |p_2 - p_1| (1 + step)
        p1 = float(rng.uniform(0.05, 0.45))
        b1 = ball(0.2)
        u = rng.standard_normal(3)
        u = (u / np.linalg.norm(u)).tolist()
        dn = (1.0 - 2.0 * p1) * (1.0 + EDGE_STEPS[(i // 4) % len(EDGE_STEPS)])
        b2 = [(p1 * x + dn * y) / (1.0 - p1) for x, y in zip(b1, u)]
    elif kind == 2:  # signed zeros in both rows
        p1 = 0.5 if i % 8 == 2 else float(rng.uniform(0.1, 0.9))
        b1, b2 = ([float(rng.choice([-0.0, 0.0, 0.5, -0.5])) for _ in range(3)] for _ in range(2))
    else:
        p1 = float(rng.uniform(0.05, 0.95))
        b1, b2 = ball(1.0), ball(1.0)
    entries = [(p1, tuple(b1)), (1.0 - p1, tuple(b2))]
    return entries[::-1] if i % 5 == 0 else entries


def collect() -> None:
    """Solve every input with the qsd on sys.path; write its answers as JSON to stdout.

    The answers are {"tolerances": named_tolerances(), "records": {key:
    record}}. A record is [method, exception type name, p_opt, bytes hash];
    the fields that do not apply are None.
    """
    import numpy as np

    import corpus
    import qsd
    import qsd.cli

    records = {}

    def run(key, solve):
        try:
            result = solve()
        except Exception as exc:  # the type is what is compared
            records[key] = [None, type(exc).__name__, None, None]
        else:
            povm, cert, ens = result.povm, result.certificate, result.ensemble
            records[key] = [result.method, None, result.p_opt, _digest(
                povm.a.tobytes(), povm.v.tobytes(),
                np.array([cert.p, *cert.common_point]).tobytes(),
                np.array([tuple(c) for c in cert.conjugates], dtype=float).reshape(-1, 3).tobytes(),
                cert.scaled_priors.tobytes(),
                cert.lambdas.tobytes(), cert.pure_mask.tobytes(), bytes([cert.degenerate]),
                ens.priors.tobytes(), ens.bloch_matrix.tobytes(), ens.weighted_points.tobytes(),
                np.array([ens.max_prior]).tobytes())]

    def run_cli(key, args, workdir):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = qsd.cli.main([*args, "--format", "json"])
        report = json.loads(out.getvalue()) if out.getvalue() else {}
        for name in ("input", "povm_input"):  # the temporary files' paths
            report.pop(name, None)
        records[key] = [report.get("method"), None if code in (0, 3) else f"exit {code}",
                        report.get("p_opt"), _digest(json.dumps(report).encode(), bytes([code]),
                                                     err.getvalue().replace(workdir, "").encode())]

    def write(path, header, rows):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(header)
            for first, (x, y, z) in rows:
                handle.write(f"{first!r} {x!r} {y!r} {z!r}\n")

    def broken(a, v, kind):
        """The rows of POVM (a, v) broken as the module docstring says."""
        if kind == "incomplete":
            scale = 1.0 + 1e-9
            return [(x * scale, [y * scale for y in row]) for x, row in zip(a, v)]
        k = a.index(max(a))
        size = math.hypot(*v[k])
        unit = [y / size for y in v[k]] if size else [0.0, 0.0, 1.0]
        past = 1e-6 if kind == "psd" else 0.75 * qsd.bloch.PSD_TOL
        rows = list(zip(a, v))
        rows[k] = (a[k], [(a[k] + past) * y for y in unit])
        return rows

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "ensemble.txt")
        povm_path = os.path.join(workdir, "povm.txt")
        for workload in corpus.WORKLOADS:
            for seed in BENCH_SEEDS:
                for k in BENCH_ROUNDS:
                    for idx, item in enumerate(corpus.round_items(workload, seed, k)):
                        key = f"{workload}/{seed}/{k}/{idx}/{item.label}"
                        run(key, lambda: qsd.solve_auto(qsd.validate_ensemble(item.entries)))
                        if workload != "structured-cli":
                            continue
                        key = key.split("/", 1)[1]
                        write(path, "# prior bx by bz\n", item.entries)
                        run_cli("cli/" + key, ["solve", path], workdir)
                        povm = qsd.solve_auto(qsd.validate_ensemble(item.entries)).povm
                        a, v = povm.a.tolist(), povm.v.tolist()
                        kinds = ("psd", "near-psd", "incomplete") if idx < BROKEN_ITEMS else ()
                        for kind in ("solved",) + kinds:
                            rows = zip(a, v) if kind == "solved" else broken(a, v, kind)
                            write(povm_path, "# a vx vy vz\n", rows)
                            run_cli(f"verify/{key}/{kind}", ["verify", path, povm_path], workdir)

        rng = np.random.default_rng(DIAGONAL_SEED)
        for i in range(DIAGONAL_DRAWS):
            n = int(rng.integers(3, 41))
            raw = rng.integers(1, 4, size=n).astype(float) if i % 2 else rng.uniform(0.1, 1.0, n)
            if i % 5 == 4:
                raw[rng.integers(n)] = 4.0 * n  # the guess regime
            z = rng.choice(DIAGONAL_Z, size=n) if i % 3 else rng.uniform(-1.0, 1.0, n)
            x = -0.0 if i % 4 == 1 else 0.0
            entries = [(p, (x, x, zz)) for p, zz in zip((raw / raw.sum()).tolist(), z.tolist())]
            key = f"diagonal/{i}/{n}"
            run(key + "/auto", lambda: qsd.solve_auto(qsd.validate_ensemble(entries)))
            run(key + "/solve_diagonal", lambda: qsd.solve_diagonal(qsd.validate_ensemble(entries)))
            write(path, "# prior bx by bz\n", entries)
            run_cli(key + "/cli", ["solve", path], workdir)

        rng = np.random.default_rng(TWO_STATE_SEED)
        for i in range(TWO_STATE_DRAWS):
            entries = two_state_pair(rng, i)
            key = f"two-state/{i}"
            run(key + "/auto", lambda: qsd.solve_auto(qsd.validate_ensemble(entries)))
            run(key + "/solve_two_state",
                lambda: qsd.solve_two_state(qsd.validate_ensemble(entries)))
            write(path, "# prior bx by bz\n", entries)
            run_cli(key + "/cli", ["solve", path], workdir)

    for kind in corpus.PLATONIC_KINDS:
        for scale in PLATONIC_SCALES:
            verts = scale * corpus.platonic_vertices(kind)
            ens = qsd.validate_ensemble([(1.0 / len(verts), tuple(v)) for v in verts.tolist()])
            key = f"platonic/{kind}/{scale}"
            run(key + "/auto", lambda: qsd.solve_auto(ens))
            run(key + "/shell", lambda: qsd.solve_symmetric_shell(ens))
            run(key + "/cone", lambda: qsd.solve_with_method(ens, "cone"))

    rng = np.random.default_rng(CONE_SEED)
    for i in range(CONE_DRAWS):
        n = int(rng.integers(3, 40))
        b = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, math.pi))
        phis = tuple(rng.uniform(0.0, 2.0 * math.pi, n).tolist()) if i % 2 else None
        key = f"cone/{i}/{n}"
        run(key + "/auto", lambda: qsd.solve_auto(qsd.cone_ensemble(n, b, theta, phis)))
        run(key + "/solve_cone", lambda: qsd.solve_cone(n, b, theta, phis))

    for degrees in range(1, 90):
        theta = math.radians(degrees)
        for hundredths in range(1, 50):
            p1 = hundredths / 100.0
            key = f"mirror/{degrees}/{hundredths}"
            run(key + "/auto", lambda: qsd.solve_auto(qsd.mirror_ensemble(theta, p1)))
            run(key + "/mirror", lambda: qsd.solve_mirror_symmetric(theta, p1))

    rng = np.random.default_rng(CORNER_SEED)
    thetas = rng.uniform(math.radians(80.0), math.radians(90.0), CORNER_DRAWS).tolist()
    for i, (theta, p1) in enumerate(zip(thetas, rng.uniform(0.001, 0.2, CORNER_DRAWS).tolist())):
        key = f"corner/{i}"
        run(key + "/auto", lambda: qsd.solve_auto(qsd.mirror_ensemble(theta, p1)))
        run(key + "/oracle", lambda: qsd.solve_oracle(qsd.mirror_ensemble(theta, p1)))

    rng = np.random.default_rng(ORACLE_SEED)
    for n in ORACLE_SIZES:
        for i in range(ORACLE_DRAWS):
            for kind, draw in (("mixed", corpus.mixed_ensemble),
                               ("pure", corpus.jittered_pure_ensemble)):
                entries = draw(rng, n)
                run(f"oracle/{n}/{i}/{kind}",
                    lambda: qsd.solve_oracle(qsd.validate_ensemble(entries)))

    json.dump({"tolerances": named_tolerances(), "records": records}, sys.stdout)


def answers(checkout: Path) -> dict:
    """collect's answers from a child interpreter that imports qsd from checkout/src."""
    src = checkout / "src"
    if not (src / "qsd" / "__init__.py").is_file():
        raise SystemExit(f"same_answers: no src/qsd under {checkout}")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(BENCH), str(TOOLS)],
        cwd=checkout, env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"same_answers: solving in {checkout} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def src_lines(checkout: Path) -> int:
    """Newlines in the .py files under checkout/src/qsd."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "qsd").rglob("*.py"))


def compare(old: dict, new: dict) -> int:
    """Print the differences; 1 when a tag or exception type changed or p moved past P_TOL."""
    if old.keys() != new.keys():
        print(f"input sets differ: {len(old.keys() ^ new.keys())} keys in one run only")
        return 1
    tags, raised, moved, sizes = [], [], Counter(), Counter()
    worst, worst_key = 0.0, None
    for key, (method_a, exc_a, p_a, bytes_a) in old.items():
        method_b, exc_b, p_b, bytes_b = new[key]
        group = key.split("/", 1)[0]
        sizes[group] += 1
        if method_a != method_b:
            tags.append(f"  {key}: {method_a} -> {method_b}")
        if exc_a != exc_b:
            raised.append(f"  {key}: {exc_a} -> {exc_b}")
        if p_a is not None and p_b is not None and abs(p_a - p_b) > worst:
            worst, worst_key = abs(p_a - p_b), key
        if bytes_a != bytes_b:
            moved[group] += 1
    print(f"{len(old)} inputs: " + ", ".join(f"{g} {n}" for g, n in sizes.items()))
    for title, changes in (("tag changes", tags), ("exception-type changes", raised)):
        print(f"{title}: {len(changes)}", *changes[:20], sep="\n")
    print(f"max |delta p_opt|: {worst!r}" + (f" ({worst_key})" if worst_key else ""))
    print("inputs whose bytes moved: "
          + (", ".join(f"{g} {moved[g]}/{sizes[g]}" for g in sizes if moved[g]) or "none"))
    return 1 if tags or raised or worst > P_TOL else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkouts = [Path(path).resolve() for path in argv]
    found = [answers(checkout) for checkout in checkouts]
    code = compare(*(run["records"] for run in found))
    lines = [src_lines(checkout) for checkout in checkouts]
    old, new = (run["tolerances"] for run in found)
    changed = [f"-{name}" for name in sorted(set(old) - set(new))]
    changed += [f"+{name}" for name in sorted(set(new) - set(old))]
    print(f"{'same answers' if code == 0 else 'answers differ'}; src/qsd lines: "
          f"{lines[0]:,} -> {lines[1]:,} ({lines[1] - lines[0]:+,}); named tolerances: "
          f"{len(old)} -> {len(new)} ({len(new) - len(old):+}"
          + (f": {', '.join(changed)})" if changed else ")"))
    return code


if __name__ == "__main__":
    sys.exit(main())
