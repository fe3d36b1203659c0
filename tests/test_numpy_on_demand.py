"""numpy loads on the first array a solve needs, seen from fresh interpreters.

Every module of qsd binds np to bloch.LazyNumpy, so importing qsd loads no
numpy, and neither does a solve on a record that keeps floats. This process
imported numpy long ago, so each check runs in a child interpreter, which
reports whether "numpy" is in sys.modules after each step and then the
fingerprint of each value it built. A child that imported numpy first
gives the reference fingerprints: loading numpy late moves no byte.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import ball_points
from test_float_path import _NO_NUMPY, _PAIR, _entries

ROOT = Path(__file__).resolve().parents[1]

# The child: optionally import numpy, import qsd, evaluate each step, note
# after each whether numpy is loaded, and only then fingerprint the values
# (which reads their arrays).
_CHILD = """
import sys
if {numpy_first}:
    import numpy
import qsd, qsd.cli
loaded = ["numpy" in sys.modules]
values = []
for step in {steps!r}:
    values.append(eval(step))
    loaded.append("numpy" in sys.modules)
from test_float_path import fingerprint
shown = [repr(v) if isinstance(v, qsd.KktReport) else fingerprint(v) for v in values]
print(repr((loaded, shown)))
"""

_FLOAT_STEPS = [f"qsd.solve_auto(qsd.validate_ensemble({entries!r}))"
                for _, _, entries in _NO_NUMPY]


def _over_float_rows():
    rng = np.random.default_rng(35)
    weights = rng.uniform(0.5, 1.5, size=33)
    return _entries(weights / weights.sum(), ball_points(rng, 33))


_ENSEMBLE_FILE = "# prior bx by bz\n0.5 0.0 0.0 1.0\n0.3 0.6 0.0 -0.8\n0.2 -0.6 0.0 -0.8\n"

# (id, step): each loads numpy
_LOADING_STEPS = [
    ("n=33", f"qsd.solve_auto(qsd.validate_ensemble({_over_float_rows()!r}))"),
    ("kkt", f"qsd.solve_auto(qsd.validate_ensemble({_PAIR!r})).kkt"),
    ("parse_ensemble_file", "qsd.cli.parse_ensemble_file('ensemble.txt')"),
]


def _child(tmp_path, steps, numpy_first=False):
    """(loaded, shown) of _CHILD: numpy's presence after import and each step, and each value."""
    (tmp_path / "ensemble.txt").write_text(_ENSEMBLE_FILE, encoding="utf-8")
    paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", _CHILD.format(numpy_first=numpy_first, steps=steps)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The fingerprints of every step, in a child that imported numpy first."""
    steps = _FLOAT_STEPS + [step for _, step in _LOADING_STEPS]
    loaded, shown = _child(tmp_path_factory.mktemp("reference"), steps, numpy_first=True)
    assert all(loaded)
    return dict(zip(steps, shown))


def test_import_and_float_solves_load_no_numpy(tmp_path, reference):
    # import qsd, qsd.cli, then the two-state, three-state boundary and
    # guess, diagonal and oracle solves of at most FLOAT_ROWS rows
    loaded, shown = _child(tmp_path, _FLOAT_STEPS)
    assert loaded == [False] * (1 + len(_FLOAT_STEPS))
    assert [value[0] for value in shown] == [method for method, _, _ in _NO_NUMPY]
    assert shown == [reference[step] for step in _FLOAT_STEPS]


@pytest.mark.parametrize("step", [step for _, step in _LOADING_STEPS],
                         ids=[name for name, _ in _LOADING_STEPS])
def test_arrays_kkt_and_parsing_load_numpy(tmp_path, reference, step):
    loaded, shown = _child(tmp_path, [step])
    assert loaded == [False, True]
    assert shown == [reference[step]]
