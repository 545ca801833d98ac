"""Mistake-severity measures on ranked predictions.

Two fictional classifiers make the same number of top-1 mistakes on a
balanced 27-class tree, but one confuses siblings while the other confuses
unrelated classes. Flat top-k error cannot tell them apart; the hierarchical
measures can.
"""

import numpy as np

from hiercls.metrics import report_from_indices
from hiercls.taxonomy import load_edges, prune_to_tree

edges, classes = [], []
for i in range(3):
    edges.append(("root", f"g{i}"))
    for j in range(3):
        edges.append((f"g{i}", f"g{i}{j}"))
        for k in range(3):
            leaf = f"c{i}{j}{k}"
            edges.append((f"g{i}{j}", leaf))
            classes.append(leaf)
tax = prune_to_tree(load_edges("".join(f"{a}\t{b}\n" for a, b in edges)), classes)

rng = np.random.default_rng(1)
truths = [classes[rng.integers(27)] for _ in range(300)]
truth_idx = [tax.leaf_index[c] for c in truths]


def rank_with_mistakes(confuser):
    """Each example's top-5 class indices; 30% of top-1s are confused."""
    rankings = []
    for truth in truths:
        top = confuser(truth) if rng.random() < 0.3 else truth
        rest = [c for c in classes if c != top]
        rankings.append([tax.leaf_index[c] for c in [top] + rest[:4]])
    return rankings


def sibling_confuser(truth):
    siblings = [c for c in classes if c[:3] == truth[:3] and c != truth]
    return siblings[rng.integers(len(siblings))]


def random_confuser(truth):
    others = [c for c in classes if c != truth]
    return others[rng.integers(len(others))]


for name, confuser in (("sibling-confuser", sibling_confuser),
                       ("random-confuser", random_confuser)):
    report = report_from_indices(tax, rank_with_mistakes(confuser), truth_idx,
                                 (1, 5))
    print(f"{name}:")
    print(f"  top-1 error          {report.top_k_error[1]:.3f}")
    print(f"  top-5 error          {report.top_k_error[5]:.3f}")
    print(f"  mistake severity     {report.hier_dist_mistake:.3f}")
    print(f"  avg hier dist @5     {report.avg_hier_dist_topk[5]:.3f}")
    print(f"  severity histogram   {report.severity_histogram}")
