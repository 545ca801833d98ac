"""Traced hiercls entry point: wraps public functions in timing spans, then
runs ``hiercls.cli.main`` with the given arguments.

    PYTHONPATH=src python3 perfbench/tracer.py <hiercls arguments>

Environment:
    PERFBENCH_SPAN_DIR  directory that receives one ``spans-<pid>.tsv`` file
                        per process (required)
    PERFBENCH_RUN_ID    identifier written on every span (required)
    PERFBENCH_SPAWN_T   ``time.monotonic()`` read just before this process
                        was spawned; gives the ``cli.startup`` span

Each span row is ``run_id pid span_id parent_id name t0 t1 ok n new``,
tab-separated, with times from ``time.monotonic()`` (CLOCK_MONOTONIC, shared
by all processes on Linux). ``n`` is a byte or row count where the span has
one, else -1; ``new`` is 1 when an object-keyed span first sees its object in
this process or an ancestor it was forked from.

Spans stay in memory. The main process writes them when ``main`` returns.
A sweep's fork workers are stopped with ``terminate()``, so ``atexit`` never
runs there: they write their spans at the end of every ``run_point``, before
the task returns.

Hot helpers (``fileio.fmt``, called once per value written, and the
private per-step forward pass) are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

OBJECTIVES = ("ClassCrossEntropy", "ClassHxeObjective",
              "ClassSoftLabelObjective", "ConditionalHxeObjective")


def _arg_len(i):
    return lambda args, result: len(args[i])


def _arg_bytes(i):
    return lambda args, result: len(args[i].encode("utf-8"))


def _result_len(args, result):
    return len(result)


# (span name, lookup sites "module:attr" or "module:Class.attr", count).
# Every site of one entry must hold the same function; a function imported
# by name into another module is patched where that module looks it up.
WRAPS = [
    ("taxonomy.prune_to_tree",
     ["hiercls.taxonomy:prune_to_tree", "hiercls.cli:prune_to_tree"], None),
    ("taxonomy.lca_height_matrix",
     ["hiercls.taxonomy:Taxonomy.lca_height_matrix"], None),
    ("taxonomy.leaf_membership",
     ["hiercls.taxonomy:Taxonomy.leaf_membership"], None),
    ("data.synth_hierarchical", ["hiercls.cli:synth_hierarchical"], None),
    ("data.dataset_to_csv", ["hiercls.cli:dataset_to_csv"], _result_len),
    ("data.dataset_from_csv",
     ["hiercls.cli:dataset_from_csv", "hiercls.sweep:dataset_from_csv"],
     _arg_len(0)),
    ("data.split", ["hiercls.cli:split", "hiercls.sweep:split"], None),
    ("losses.soft_label_matrix", ["hiercls.losses:soft_label_matrix"], None),
    *[(f"losses.{cls}.{label}", [f"hiercls.losses:{cls}.{attr}"], None)
      for cls in OBJECTIVES
      for label, attr in (("init", "__init__"), ("loss_batch", "loss_batch"),
                          ("grad_batch", "grad_batch"))],
    ("model.train", ["hiercls.cli:train", "hiercls.sweep:train"], None),
    ("model.backprop", ["hiercls.model:backprop"], None),
    ("model.AdamOptimizer.update", ["hiercls.model:AdamOptimizer.update"], None),
    ("model.forward", ["hiercls.model:forward"], None),
    ("model.evaluate_model",
     ["hiercls.model:evaluate_model", "hiercls.cli:evaluate_model"], None),
    ("model.select_checkpoints",
     ["hiercls.cli:select_checkpoints", "hiercls.sweep:select_checkpoints"], None),
    ("model.checkpoint_to_text", ["hiercls.cli:checkpoint_to_text"], _result_len),
    ("model.checkpoint_from_text", ["hiercls.cli:checkpoint_from_text"],
     _arg_len(0)),
    ("metrics.report_from_indices", ["hiercls.model:report_from_indices"],
     _arg_len(2)),
    ("fileio.write_text", ["hiercls.cli:write_text", "hiercls.sweep:write_text"],
     _arg_bytes(1)),
    ("sweep.run_sweep", ["hiercls.cli:run_sweep"], None),
    ("sweep.run_point", ["hiercls.sweep:run_point"], None),
]

# Spans keyed by their first argument's identity (``new`` column).
PER_OBJECT = {"taxonomy.lca_height_matrix"}
# Spans that end a unit of work in a fork worker; the worker writes its
# spans as each one closes.
FLUSH_IN_WORKER = {"sweep.run_point"}


class Tracer:
    def __init__(self, run_id: str, out_dir: str):
        self.run_id = run_id
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.main_pid = self.pid
        self.seq = 0
        self.stack: list[str] = []
        self.done: list[tuple] = []
        self.seen: set[int] = set()

    def after_fork_in_child(self) -> None:
        # The open stack is kept so a worker's spans point at the span that
        # forked it; finished spans belong to the parent and are dropped.
        self.pid = os.getpid()
        self.done = []

    def record(self, sid, parent, name, t0, t1, ok, n=-1, new=0) -> None:
        self.done.append((sid, parent, name, t0, t1, ok, n, new))

    def flush(self) -> None:
        if not self.done:
            return
        rows = [f"{self.run_id}\t{self.pid}\t{sid}\t{parent}\t{name}\t"
                f"{t0!r}\t{t1!r}\t{ok}\t{n}\t{new}\n"
                for sid, parent, name, t0, t1, ok, n, new in self.done]
        path = os.path.join(self.out_dir, f"spans-{self.pid}.tsv")
        with open(path, "a", encoding="utf-8") as f:
            f.writelines(rows)
        self.done = []

    def wrap(self, name: str, fn, count=None):
        tracer = self
        per_object = name in PER_OBJECT
        flush = name in FLUSH_IN_WORKER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.seq += 1
            sid = f"{tracer.pid}.{tracer.seq}"
            parent = tracer.stack[-1] if tracer.stack else ""
            new = 0
            if per_object and id(args[0]) not in tracer.seen:
                tracer.seen.add(id(args[0]))
                new = 1
            tracer.stack.append(sid)
            t0 = time.monotonic()
            ok, n = 0, -1
            try:
                result = fn(*args, **kwargs)
                ok = 1
            finally:
                t1 = time.monotonic()
                tracer.stack.pop()
                if ok and count is not None:
                    n = count(args, result)
                tracer.record(sid, parent, name, t0, t1, ok, n, new)
                if flush and tracer.pid != tracer.main_pid:
                    tracer.flush()
            return result

        return traced


def _resolve(site: str):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Patch every site in ``WRAPS``; raise if the code no longer matches."""
    for name, sites, count in WRAPS:
        targets = [_resolve(site) for site in sites]
        originals = {id(getattr(owner, attr)) for owner, attr in targets}
        if len(originals) != 1:
            raise RuntimeError(f"{name}: sites {sites} hold different objects")
        wrapped = tracer.wrap(name, getattr(*targets[0]), count)
        for owner, attr in targets:
            setattr(owner, attr, wrapped)
    os.register_at_fork(after_in_child=tracer.after_fork_in_child)


def main(argv: list[str]) -> int:
    spawn_t = os.environ.get("PERFBENCH_SPAWN_T")
    tracer = Tracer(os.environ["PERFBENCH_RUN_ID"],
                    os.environ["PERFBENCH_SPAN_DIR"])
    from hiercls import cli

    install(tracer)
    entry = tracer.wrap("cli.main", cli.main)
    if spawn_t is not None:
        tracer.record(f"{tracer.pid}.0", "", "cli.startup", float(spawn_t),
                      time.monotonic(), 1)
    try:
        return entry(argv)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
