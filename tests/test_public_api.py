import os
import subprocess
import sys
import types

import ineqbridge
from ineqbridge import (bias_analysis, distributions, estimators, index_core, mc_harness,
                        quadrature, specfun)

SUBMODULES = (bias_analysis, distributions, estimators, index_core, mc_harness, quadrature, specfun)


def test_package_exports_exactly_the_submodule_names():
    union = [name for module in SUBMODULES for name in module.__all__]
    assert len(union) == len(set(union))
    assert sorted(ineqbridge.__all__) == sorted(union)
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(ineqbridge, name) is getattr(module, name)


def test_every_public_attribute_is_exported_or_a_submodule():
    public = {name for name in vars(ineqbridge) if not name.startswith("_")}
    extra = public - set(ineqbridge.__all__)
    assert all(isinstance(getattr(ineqbridge, name), types.ModuleType) for name in extra), extra


def test_import_loads_no_process_pool():
    code = ("import sys, ineqbridge, ineqbridge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing')))")
    src = os.path.dirname(os.path.dirname(ineqbridge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
