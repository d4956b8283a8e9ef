"""Every check has teeth: a single-point defect in one calculus operator
must make some named check of the relations or cocycle suites fail.

Each defect is one textual change in the operator's source, compiled in a
copy of its module's namespace and patched into every module that binds
the operator by name (`cohomology` imports `_merge_sign`, several modules
import `ext_d` or `neg_jacobian`).  The affine exact-image cache is
cleared around each run, so that no defective image outlives the test.
"""

import __future__
import inspect
import sys
import textwrap

import pytest

from vfcoho import forms
from vfcoho.reports import RunConfig
from vfcoho.suites import flatten, run_suites

CFG = RunConfig(dim=2, radius=1, samples=5, max_tuples=60)
SUITES = ("relations", "cocycles")

# (module, attribute path, source text, defective replacement)
DEFECTS = {
    "VectorField.bracket": ("vfcoho.fields", ("VectorField", "bracket"),
                            "(j, -b)", "(j, b)"),
    "ext_d": ("vfcoho.forms", ("ext_d",), "sign * e * c", "e * c"),
    "_reduce_torus": ("vfcoho.forms", ("_reduce_torus",),
                      "-c if pos % 2 else c", "c"),
    "neg_jacobian": ("vfcoho.fields", ("neg_jacobian",), "-e * c", "e * c"),
    "contract": ("vfcoho.forms", ("contract",), "sign = (-1) ** pos", "sign = 1"),
    "_merge_sign": ("vfcoho.forms", ("_merge_sign",),
                    "(-1) ** inversions", "1"),
}


def _mutant(module_name, path, old, new):
    """The operator at `path`, recompiled with `old` replaced by `new`."""
    module = sys.modules[module_name]
    original = module
    for name in path:
        original = getattr(original, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert old in source
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec",
                 __future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return original, namespace[path[-1]]


def _failing_checks():
    forms._affine_exact_rref.cache_clear()
    try:
        return [r.name for r in flatten(run_suites(SUITES, CFG)) if not r.passed()]
    finally:
        forms._affine_exact_rref.cache_clear()


def test_every_check_passes_without_a_defect():
    assert _failing_checks() == []


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_a_single_point_defect_fails_a_named_check(defect, monkeypatch):
    module_name, path, old, new = DEFECTS[defect]
    original, mutant = _mutant(module_name, path, old, new)
    if len(path) == 2:  # a method: patch its class
        monkeypatch.setattr(getattr(sys.modules[module_name], path[0]), path[1], mutant)
    else:
        for module in [m for name, m in sys.modules.items() if name.startswith("vfcoho")]:
            if getattr(module, path[0], None) is original:
                monkeypatch.setattr(module, path[0], mutant)
    assert _failing_checks()
