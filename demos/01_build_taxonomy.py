"""Build a class taxonomy from a messy IS-A edge list and query it.

The raw graph below is a small DAG: LAMP can be reached from the root both
directly and through a longer, more specific chain. Pruning keeps the longest
root path per class, splices out single-child nodes, and yields a proper
tree whose leaves are exactly the classes we asked for.
"""

import numpy as np

from hiercls.taxonomy import (apply_edits, load_edges, prune_to_tree,
                              randomize_leaves)

EDGES = """\
# parent<TAB>child, comments allowed
entity\tartifact
entity\tanimal
artifact\tfurniture
artifact\tlamp
furniture\tlamp
furniture\tchair
furniture\ttable
animal\tdog
animal\tcat
animal\tbird
"""

CLASSES = ["lamp", "chair", "table", "dog", "cat", "bird"]

graph = load_edges(EDGES)
print(f"raw graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges")

tax = prune_to_tree(graph, CLASSES)
print(f"pruned tree: {tax}")
print("exported edge list (depth-first, stable):")
print(tax.export_edges())

# LAMP kept its longer route through FURNITURE, not the direct shortcut,
# and ARTIFACT vanished: once the shortcut was dropped it had furniture as
# its only child, and single-child nodes carry no information.
lineage = ["lamp"]
while lineage[-1] != tax.root:
    lineage.append(tax.parent[lineage[-1]])
print("lineage of lamp:", " -> ".join(lineage))

print("\npairwise severity (LCA height) in canonical class order:")
print(tax.lca_height_matrix())
print("normalized distances, row 'dog':")
print(np.round(tax.distance_matrix()[tax.leaf_index["dog"]], 3))

# A manual fix: pretend BIRD belongs under FURNITURE for some application.
edited = apply_edits(tax, [("bird", "furniture")])
print("\nafter reparenting bird under furniture:")
print(edited.export_edges())

# Shuffling which class sits at which leaf slot destroys the semantics but
# keeps the shape: the multiset of pairwise severities is unchanged.
shuffled = randomize_leaves(tax, seed=4)
print("randomized leaf assignment (seed 4):")
print(shuffled.export_edges())
print("severity multiset unchanged:",
      sorted(tax.lca_height_matrix().ravel().tolist())
      == sorted(shuffled.lca_height_matrix().ravel().tolist()))
