"""The benchmark tracer (perfbench/tracer.py) patches each traced function
at fixed lookup sites. A refactor that rebinds one of those names, or moves
a call away from them, breaks ``--trace 1``; these checks catch that here.
"""

import importlib.util
import os
from pathlib import Path

import pytest

from hiercls import sweep
from test_cli import gen_tree_and_data, run, workdir, write_sweep_config  # noqa: F401

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


def test_sweep_parent_writes_every_file(workdir, monkeypatch):
    # A fork worker's spans are flushed when its ``run_point`` closes, so a
    # write after that in a worker would go untraced.
    tree, data = gen_tree_and_data(workdir)
    cfg = write_sweep_config(workdir, tree, data, workers="2")
    log = workdir / "writes.tsv"
    write_text = sweep.write_text

    def logged(path, text):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\t{Path(path).name}\n")
        write_text(path, text)

    monkeypatch.setattr(sweep, "write_text", logged)
    assert run("sweep", "--config", cfg, "--out", workdir / "sw") == 0
    pids, names = zip(*(line.split("\t") for line in log.read_text().splitlines()))
    assert set(pids) == {str(os.getpid())}
    assert sorted(names) == sorted(
        2 * ["trace.csv", "selected.csv", "histogram.csv"]
        + ["tradeoff.csv", "tradeoff_mean.csv"])
