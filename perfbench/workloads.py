"""Seeded inputs and CLI plans for the benchmark workloads.

A plan is everything one round trip needs: the input files the program
receives (edge list, class list, sweep config) and the argument lists of
the five commands ``hierarchy build``, ``gen-data``, ``train``,
``evaluate --run`` and ``sweep``, all relative to the round-trip directory.
The same (workload, size, seed) always gives the same plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("desk", "wide_class", "wide_conditional")
SIZES = ("full", "smoke")
SHAPE_SEED = 5


@dataclass(frozen=True)
class Size:
    """Tree, data and schedule sizes for one workload family."""

    per_class: int
    dim: int
    noise: float
    level_decay: float
    train_steps: int
    train_every: int
    train_discard: int
    sweep_steps: int
    sweep_every: int
    sweep_discard: int
    grid: tuple[float, ...]
    seeds: tuple[int, ...]
    internal: int = 0  # wide DAG only: inner nodes, leaves, parent window
    leaves: int = 0
    window: int = 0


# desk: the demos/04_tradeoff_sweep.py protocol. wide: 880 classes, between
# the paper's 608 and 1,010, with few examples and steps so that several
# round trips fit in one run.
_DESK = {
    "full": Size(per_class=300, dim=16, noise=1.1, level_decay=0.7,
                 train_steps=1500, train_every=100, train_discard=400,
                 sweep_steps=1500, sweep_every=100, sweep_discard=400,
                 grid=(0.1, 0.9), seeds=(0, 1)),
    "smoke": Size(per_class=20, dim=16, noise=1.1, level_decay=0.7,
                  train_steps=60, train_every=10, train_discard=0,
                  sweep_steps=60, sweep_every=10, sweep_discard=0,
                  grid=(0.1, 0.9), seeds=(0, 1)),
}
_WIDE = {
    "full": Size(per_class=3, dim=64, noise=1.0, level_decay=0.95,
                 train_steps=50, train_every=10, train_discard=0,
                 sweep_steps=50, sweep_every=10, sweep_discard=0,
                 grid=(0.5,), seeds=(0,),
                 internal=2020, leaves=880, window=40),
    "smoke": Size(per_class=6, dim=16, noise=1.0, level_decay=0.95,
                  train_steps=60, train_every=10, train_discard=0,
                  sweep_steps=60, sweep_every=10, sweep_discard=0,
                  grid=(0.5,), seeds=(0,),
                  internal=120, leaves=60, window=8),
}


@dataclass(frozen=True)
class Plan:
    workload: str
    size: Size
    files: dict[str, str]            # input file name -> text
    commands: list[tuple[str, list[str]]]   # (step, hiercls arguments)
    num_leaves: int
    points: int                      # sweep points (variants x grid x seeds)


def desk_tree() -> tuple[list[tuple[str, str]], list[str]]:
    """The balanced 3 x 3 x 3 tree of the tradeoff-sweep demo (27 leaves)."""
    edges, classes = [], []
    for i in range(3):
        edges.append(("root", f"g{i}"))
        for j in range(3):
            edges.append((f"g{i}", f"g{i}{j}"))
            for k in range(3):
                edges.append((f"g{i}{j}", f"c{i}{j}{k}"))
                classes.append(f"c{i}{j}{k}")
    return edges, classes


def wide_dag(seed: int, size: Size) -> tuple[list[tuple[str, str]], list[str]]:
    """Random multi-parent DAG whose sinks are the classes.

    Inner node i takes a parent among the ``window`` nodes before it and, a
    third of the time, a second one, so longest root paths (which pruning
    keeps) run deep. Each class hangs under one or two inner nodes from the
    last three quarters of the order, and has no children, so no class can
    lie on another's kept path.

    The shape is drawn once, from ``SHAPE_SEED``, so every workload seed
    does the same amount of work: a redrawn shape moves the mean leaf depth,
    and with it the LCA and pruning cost, by about 10% from seed to seed.
    The workload seed renames every node and shuffles the edge and class
    order, which changes pruning's tie-breaks and the canonical class order.
    """
    shape = random.Random(SHAPE_SEED)
    pairs = []

    def parents_of(lo: int, hi: int) -> list[int]:
        chosen = {shape.randrange(lo, hi)}
        if shape.random() < 1 / 3:
            chosen.add(shape.randrange(lo, hi))
        return sorted(chosen)

    for i in range(1, size.internal):
        pairs += [(p, i) for p in parents_of(max(0, i - size.window), i)]
    for j in range(size.internal, size.internal + size.leaves):
        pairs += [(p, j) for p in parents_of(size.internal // 4, size.internal)]

    rng = random.Random(seed)
    names = [f"n{i:04d}" for i in range(size.internal)]
    class_names = [f"c{j:04d}" for j in range(size.leaves)]
    rng.shuffle(names)
    rng.shuffle(class_names)
    names += class_names
    edges = [(names[p], names[c]) for p, c in pairs]
    rng.shuffle(edges)
    classes = list(class_names)
    rng.shuffle(classes)
    return edges, classes


def plan(workload: str, size_name: str, seed: int, workers: int) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    if size_name not in SIZES:
        raise ValueError(f"unknown size {size_name!r}; one of {SIZES}")
    if workload == "desk":
        size = _DESK[size_name]
        edges, classes = desk_tree()
        train_flags = ["--loss", "soft", "--beta", "10", "--hidden-dim", "64"]
        head, taxonomy_source = "class", "both:123"
    else:
        size = _WIDE[size_name]
        edges, classes = wide_dag(seed, size)
        head = "class" if workload == "wide_class" else "conditional"
        train_flags = ["--loss", "ce", "--head", head]
        taxonomy_source = f"both:{seed}"

    common = ["--taxonomy", "tree.tsv", "--classes", "classes.txt"]
    sweep_cfg = "\n".join([
        "loss = hxe",
        f"head = {head}",
        f"grid = {','.join(str(a) for a in size.grid)}",
        f"seeds = {','.join(str(s) for s in size.seeds)}",
        f"taxonomy_source = {taxonomy_source}",
        "data = data.csv",
        "taxonomy = tree.tsv",
        "classes = classes.txt",
        f"steps = {size.sweep_steps}",
        "batch_size = 64",
        f"checkpoint_every = {size.sweep_every}",
        f"discard_before = {size.sweep_discard}",
        "lr = 0.01",
        "ks = 1,5,20",
        "eval_split = val",
    ]) + "\n"
    commands = [
        ("build", ["hierarchy", "build", "--edges", "edges.tsv",
                   "--classes", "classes.txt", "--out", "tree.tsv"]),
        ("gen-data", ["gen-data", *common, "--per-class", str(size.per_class),
                      "--dim", str(size.dim), "--noise-scale", str(size.noise),
                      "--level-decay", str(size.level_decay),
                      "--seed", str(seed), "--out", "data.csv"]),
        ("train", ["train", "--data", "data.csv", *common, *train_flags,
                   "--steps", str(size.train_steps),
                   "--checkpoint-every", str(size.train_every),
                   "--discard-before", str(size.train_discard),
                   "--lr", "0.01", "--seed", "0", "--out", "train"]),
        ("evaluate", ["evaluate", "--data", "data.csv", *common,
                      "--run", "train", "--out-report", "eval/report.csv",
                      "--out-histogram", "eval/histogram.csv"]),
        ("sweep", ["sweep", "--config", "sweep.cfg", "--workers", str(workers),
                   "--out", "sweep"]),
    ]
    files = {
        "edges.tsv": "".join(f"{a}\t{b}\n" for a, b in edges),
        "classes.txt": "\n".join(classes) + "\n",
        "sweep.cfg": sweep_cfg,
    }
    return Plan(workload=workload, size=size, files=files, commands=commands,
                num_leaves=len(classes),
                points=2 * len(size.grid) * len(size.seeds))
