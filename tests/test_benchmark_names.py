"""The names the benchmark harness looks up in the package still exist.

perfbench/tracer.py wraps every function in FUNCTIONS and every method in
METHODS, and its install() raises on a missing name, so a deletion in the
package would break `perfbench/run.py --trace 1`. These tests read the
harness files as they are and fail on such a deletion instead.
"""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import ffgenus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_functions_and_methods_resolve():
    tracer = _load_tracer()
    missing = []
    for modname, funcs in tracer.FUNCTIONS.items():
        mod = importlib.import_module(modname)
        missing += [f"{modname}.{name}" for name in funcs if not callable(getattr(mod, name, None))]
    for (modname, cls, method), _ in tracer.METHODS.items():
        owner = getattr(importlib.import_module(modname), cls, None)
        if not callable(getattr(owner, method, None)):
            missing.append(f"{modname}.{cls}.{method}")
    assert tracer.FUNCTIONS and tracer.METHODS
    assert missing == []


def test_worker_package_calls_resolve():
    names = set(re.findall(r"\bfg\.(\w+)", (PERFBENCH / "worker.py").read_text()))
    assert names
    assert sorted(n for n in names if not hasattr(ffgenus, n)) == []


def test_bare_import_loads_every_package_module():
    """`import ffgenus` alone loads the five modules that the tracer wraps.

    `Tracer.install()` wraps only modules already in `sys.modules`, so the spans of a
    module imported later read 0, and it raises on a missing `ffgenus.ffpoly`. Making
    package modules lazy (ROADMAP item 9) may lift this check only together with the
    tracer change of item 7, which imports or hooks every module before it wraps.
    """
    names = ("ffpoly", "carlitz", "ramify", "genus", "oracle")
    code = ("import sys, ffgenus\n"
            f"print(sorted(m for m in {names!r} if 'ffgenus.' + m not in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
