"""The two hierarchy-aware losses on a toy tree, and their limits.

Tree: root -> (D -> A, B), C. A and B are siblings; C is an outlier class.
Confusing A with B should hurt less than confusing A with C, and both losses
express that preference with a single knob each.
"""

import numpy as np

from hiercls import losses as L
from hiercls.taxonomy import load_edges, prune_to_tree

tax = prune_to_tree(load_edges("R\tD\nR\tC\nD\tA\nD\tB"), ["A", "B", "C"])

# --- hierarchical cross-entropy --------------------------------------------
# Prediction mass sits mostly on the true class A, some on sibling B.
p_sibling = np.array([0.6, 0.3, 0.1])
p_outlier = np.array([0.6, 0.1, 0.3])

# Each edge conditional is a subtree's leaf mass over its parent's.
masses = tax.leaf_membership() @ p_sibling
print("edge conditionals for p =", p_sibling)
for node in tax.nonroot_bfs:
    cond = masses[tax.node_index[node]] / masses[tax.node_index[tax.parent[node]]]
    print(f"  p({node} | parent) = {cond:.4f}")

for alpha in (0.0, 0.5, 1.5):
    ls = L.hxe_loss(tax, alpha, p_sibling, "A")
    lo = L.hxe_loss(tax, alpha, p_outlier, "A")
    print(f"alpha={alpha:>4}: loss(mass on sibling)={ls:.4f}  "
          f"loss(mass on outlier)={lo:.4f}")
# With alpha=0 both allocations cost the same (plain cross-entropy).
# Raising alpha discounts the fine sibling distinction, so leaking mass to
# the sibling becomes cheaper than leaking it to the outlier.

# --- soft labels ------------------------------------------------------------
for beta in (0.0, 4.0, 30.0):
    rows = L.soft_label_matrix(tax, beta)
    print(f"beta={beta:>4}: target row for truth A =",
          np.round(rows[tax.leaf_index["A"]], 4))
# Small beta spreads the target toward relatives; large beta recovers the
# one-hot target, and the loss collapses to ordinary cross-entropy:
print("soft loss at beta=1e9:",
      L.soft_label_loss(tax, 1e9, p_sibling, "A"),
      "vs -log p(A):", -np.log(p_sibling[0]))

# --- analytic gradients vs finite differences -------------------------------
rng = np.random.default_rng(0)
z = rng.normal(size=3)
analytic = L.hxe_grad(tax, 0.7, z, "A")
obj = L.ClassHxeObjective(tax, 0.7)
numeric = np.zeros(3)
for i in range(3):
    zp, zm = z.copy(), z.copy()
    zp[i] += 1e-5
    zm[i] -= 1e-5
    hi = obj.loss_batch(zp[None, :], np.array([0]))[0]
    lo = obj.loss_batch(zm[None, :], np.array([0]))[0]
    numeric[i] = (hi - lo) / 2e-5
print("analytic grad:", np.round(analytic, 6))
print("numeric  grad:", np.round(numeric, 6))
