import numpy as np
import pytest
from hypothesis import strategies as st

from hiercls.taxonomy import Taxonomy, TaxonomyGraph, load_edges, prune_to_tree

TOY_TREE_EDGES = "R\tD\nR\tC\nD\tA\nD\tB\n"
TOY_TREE_LEAVES = ["A", "B", "C"]


@pytest.fixture
def toy_tree() -> Taxonomy:
    """Three classes, two siblings under one branch plus a lone shallow leaf."""
    return prune_to_tree(load_edges(TOY_TREE_EDGES), TOY_TREE_LEAVES)


def make_balanced_tree(branching: int = 3, depth: int = 3) -> Taxonomy:
    """Uniform tree: every internal node has ``branching`` children."""
    edges, leaves = [], []

    def grow(name: str, level: int):
        for i in range(branching):
            child = f"{name}.{i}" if name != "root" else f"n{i}"
            edges.append((name, child))
            if level + 1 == depth:
                leaves.append(child)
            else:
                grow(child, level + 1)

    grow("root", 0)
    text = "".join(f"{a}\t{b}\n" for a, b in edges)
    return prune_to_tree(load_edges(text), leaves)


@pytest.fixture(scope="session")
def balanced27() -> Taxonomy:
    return make_balanced_tree(3, 3)


def make_random_tree(rng: np.random.Generator, max_nodes: int = 200) -> Taxonomy:
    """Random single-rooted tree built through the pruning path, so all
    Taxonomy invariants hold (single-child chains get spliced)."""
    n = int(rng.integers(4, max_nodes + 1))
    parents = [int(rng.integers(0, i)) for i in range(1, n)]
    edges = {(f"v{p}", f"v{i + 1}") for i, p in enumerate(parents)}
    has_child = {p for p, _ in edges}
    sinks = [f"v{i}" for i in range(n) if f"v{i}" not in has_child]
    graph = TaxonomyGraph.from_edges(edges)
    return prune_to_tree(graph, sinks)


def make_random_dag(rng: np.random.Generator, max_nodes: int = 300):
    """Random single-rooted DAG plus a class list drawn from its sinks."""
    n = int(rng.integers(6, max_nodes + 1))
    edges = set()
    for i in range(1, n):
        k = int(rng.integers(1, min(3, i) + 1))
        for p in rng.choice(i, size=k, replace=False):
            edges.add((f"v{p}", f"v{i}"))
    has_child = {p for p, _ in edges}
    sinks = [f"v{i}" for i in range(n) if f"v{i}" not in has_child]
    take = max(2, int(rng.integers(2, len(sinks) + 1))) if len(sinks) > 2 else len(sinks)
    chosen = [sinks[i] for i in sorted(rng.choice(len(sinks), size=take, replace=False))]
    return TaxonomyGraph.from_edges(edges), chosen


def brute_lca(tax: Taxonomy, a: str, b: str) -> str:
    """Oracle: intersect full ancestor chains, take the deepest member."""
    chain_a = tax.ancestry(a)
    common = [n for n in chain_a if n in set(tax.ancestry(b))]
    return max(common, key=lambda n: tax.depth[n])


def random_prob_vector(rng: np.random.Generator, size: int) -> np.ndarray:
    p = rng.random(size) + 1e-6
    return p / p.sum()


def finite_difference(f, z: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    g = np.zeros_like(z, dtype=float)
    for i in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2.0 * h)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max absolute deviation scaled by the largest numeric component."""
    scale = max(float(np.abs(numeric).max()), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


@st.composite
def shaped_trees(draw):
    """A taxonomy built through the pruning path in one of four shapes, with
    its class list shuffled so canonical and depth-first order differ."""
    shape = draw(st.sampled_from(["random", "deep", "fan", "single_child_root"]))
    n = draw(st.integers(2, 30))
    if shape == "fan":  # every class hangs off the root
        parents = [0] * (n - 1)
    elif shape == "deep":  # each node hangs off one of the two newest
        parents = [draw(st.integers(max(0, i - 2), i - 1)) for i in range(1, n)]
    elif shape == "single_child_root":  # the root's only child holds the rest
        parents = [0] + [draw(st.integers(1, i - 1)) for i in range(2, n)]
    else:
        parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    edges = {(f"v{p}", f"v{i}") for i, p in enumerate(parents, start=1)}
    has_child = {p for p, _ in edges}
    sinks = [f"v{i}" for i in range(n) if f"v{i}" not in has_child]
    classes = draw(st.permutations(sinks))
    return prune_to_tree(TaxonomyGraph.from_edges(edges), list(classes))
