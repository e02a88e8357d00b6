"""Public API: every exported name resolves and the package exports only those.

Also checks that every function the benchmark's tracer wraps still exists,
that importing the package loads neither scipy nor a process pool, and that
`simulate` loads no scipy.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nbodylab

MODULES = ("potential", "central", "admissibility", "sturm", "fourbody", "models")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"nbodylab.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(nbodylab.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        if module is None:  # `from . import errors`: a submodule
            importlib.import_module(f"nbodylab.{name}")
            continue
        mod = importlib.import_module(f"nbodylab.{module}")
        assert name in mod.__all__, f"{module}.{name} is not in its __all__"
        assert getattr(nbodylab, name) is getattr(mod, name)


def _perfbench_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_functions_resolve():
    # perfbench/run.py --trace 1 wraps these; a renamed or moved one breaks it
    tracing = _perfbench_tracing()
    for _label, owner, attr in tracing.TRACED:
        assert owner in tracing.MODULES
        mod = importlib.import_module(f"nbodylab.{owner}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), f"{owner}.{attr}"
        else:
            assert callable(getattr(mod, attr, None)), f"{owner}.{attr}"


def test_import_loads_no_scipy_and_no_process_pool(tmp_path):
    # the process pool serves only sweep --jobs above 1 and loads on first use;
    # scipy serves no path at all, simulate included (its DOP853 is the package's)
    src = Path(nbodylab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys, nbodylab, nbodylab.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
    # a library simulate call
    probe = ("import sys; from nbodylab import models; "
             "q, p, period = models.circular_orbit_state(1.0, 1.0); "
             "rec = models.simulate(models.CentralForceChart(1.0, dof=2), q, p, period, "
             "samples=11); assert rec.rhs_evaluations > 0; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
    # `python -m nbodylab simulate`; -X importtime lists every module imported
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "nbodylab", "simulate",
                           "--model", "kepler", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "nbodylab.models" in imported
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []
    assert list(tmp_path.glob("*/simulate.json"))
