"""The benchmark tracer's wrap targets exist in the library.

``perfbench/tracer.py`` wraps library functions by name from outside and
lists a target it cannot find without failing, after which that target's
per-layer metrics read 0. Renaming a target would then go unnoticed in
the benchmark, so each name is resolved here, the way the tracer
resolves it, without installing any wrapper.
"""

import importlib.util
import os

import pytest

import trafficforge
import trafficforge.cli  # noqa: F401  (imports every traced module)

_TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "perfbench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: t[0])
def test_tracer_target_resolves(target):
    _, module, path, _, _ = target
    owner = getattr(trafficforge, module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
