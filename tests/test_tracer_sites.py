"""The benchmark tracer (perfbench/tracer.py) patches each traced function
at fixed lookup sites. A refactor that rebinds one of those names, or moves
a call away from them, breaks ``--trace 1``; these checks catch that here.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("name, sites", [(name, sites) for name, sites, _ in
                                         tracer.WRAPS],
                         ids=[name for name, _, _ in tracer.WRAPS])
def test_lookup_sites_hold_one_function(name, sites):
    objects = [getattr(owner, attr)
               for owner, attr in map(tracer._resolve, sites)]
    assert all(callable(obj) for obj in objects)
    assert len({id(obj) for obj in objects}) == 1, sites
