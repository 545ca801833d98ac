"""Class taxonomy trees: construction from edge lists, DAG-to-tree pruning,
manual reparenting edits, LCA queries, severity distances, and leaf-label
randomization.

A ``Taxonomy`` is an immutable rooted tree built from one ordered children
map; its zero-child nodes are the classification classes. The order of the
leaf list is the canonical class index order used by every probability
vector and matrix downstream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HierarchyError",
    "EdgeListParseError",
    "CycleError",
    "UnknownNodeError",
    "TaxonomyGraph",
    "Taxonomy",
    "load_edges",
    "prune_to_tree",
    "load_taxonomy",
    "apply_edits",
    "randomize_leaves",
]


class HierarchyError(Exception):
    """Base error for taxonomy construction and queries."""


class EdgeListParseError(HierarchyError):
    """Malformed line in an edge-list document."""


class CycleError(HierarchyError):
    """The edge set contains a directed cycle (or an edit would create one)."""


class UnknownNodeError(HierarchyError):
    """A node id was not found in the graph or tree."""


def _named(exc: HierarchyError, source: str) -> HierarchyError:
    """``exc`` with ``source`` in front of its message, if there is one."""
    return type(exc)(f"{source}: {exc}") if source else exc


@dataclass(frozen=True)
class TaxonomyGraph:
    """A parsed parent->child edge set, prior to tree pruning.

    May be a general DAG: nodes can have several parents. ``parents_of``
    and ``depth`` are derived once by ``from_edges``.
    """

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    parents_of: dict[str, list[str]] = field(repr=False)
    depth: dict[str, int] = field(repr=False)

    @staticmethod
    def from_edges(edges, source: str = "") -> "TaxonomyGraph":
        """The graph of ``edges``; raises ``CycleError``, naming ``source``
        (the option or key and the file, if any), if they are cyclic.

        Kahn's algorithm orders the nodes so that each follows all its
        parents, and the same pass sets ``depth``: each node's longest edge
        distance to a root, one ``max`` over its parents. A node that never
        enters the order lies on a cycle or below one, and the error names
        one such node.
        """
        edge_set = frozenset(edges)
        nodes = frozenset(n for e in edge_set for n in e)
        parents: dict[str, list[str]] = {n: [] for n in nodes}
        children: dict[str, list[str]] = {n: [] for n in nodes}
        for parent, child in sorted(edge_set):
            parents[child].append(parent)
            children[parent].append(child)
        waiting = {n: len(p) for n, p in parents.items()}
        order = [n for n in nodes if not waiting[n]]
        depth = dict.fromkeys(order, 0)
        for node in order:  # grows while it is read
            for child in children[node]:
                waiting[child] -= 1
                if not waiting[child]:
                    depth[child] = 1 + max(depth[p] for p in parents[child])
                    order.append(child)
        if len(order) != len(nodes):
            stuck = min(n for n in nodes if waiting[n])
            raise _named(CycleError(f"node {stuck!r} lies on a cycle or below one"),
                         source)
        return TaxonomyGraph(nodes, edge_set, parents, depth)

    def roots(self) -> list[str]:
        return sorted(n for n in self.nodes if not self.parents_of[n])


def parse_pairs(text: str, layout: str, source: str = "") -> list[tuple[str, str]]:
    """The ``a<TAB>b`` pairs of an edge list or edits file, in line order.

    Blank lines and lines starting with ``#`` are skipped. Ids are taken
    verbatim: a line without exactly one tab, or an id that is empty, has
    surrounding whitespace or starts with ``#`` (a class list would read it
    as a comment) raises ``EdgeListParseError`` naming ``source`` (the
    option or key and the file, if any) and the line. ``layout`` names the
    two fields in that message.
    """
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source} line {lineno}".lstrip()
        fields = raw.split("\t")
        if len(fields) != 2:
            raise EdgeListParseError(f"{where}: expected '{layout}', got {raw!r}")
        for node in fields:
            problem = ("is empty" if not node
                       else "has surrounding whitespace" if node != node.strip()
                       else "starts with '#', read as a comment in a class list"
                       if node.startswith("#") else None)
            if problem:
                raise EdgeListParseError(f"{where}: node id {node!r} {problem}")
        pairs.append((fields[0], fields[1]))
    return pairs


def load_edges(text: str, source: str = "") -> TaxonomyGraph:
    """Parse an edge-list document into a graph.

    One ``parent<TAB>child`` pair per line, read by ``parse_pairs``, so a
    node id with surrounding whitespace or a leading ``#`` is rejected;
    duplicate edges collapse. Raises ``EdgeListParseError`` naming
    ``source`` (the option or key and the file, if any) and the offending
    line number, or ``CycleError`` (from ``TaxonomyGraph.from_edges``),
    also naming ``source``, if the edge set is cyclic.
    """
    return TaxonomyGraph.from_edges(parse_pairs(text, "parent<TAB>child", source),
                                    source)


class Taxonomy:
    """Immutable rooted tree over classes.

    Depth is measured from the root (root depth 0). The height of a node is
    the maximum edge distance from it to any leaf of its subtree; the tree
    height is the height of the root, equal to the maximum leaf depth.

    The ordered children map ``children`` from ``root`` is the one input
    (a node that is no key has no children); ``parent`` is derived from it.
    ``leaves`` fixes the canonical class index order. ``nodes_bfs`` lists all
    nodes in breadth-first order starting at the root with children in stored
    order, which keeps every sibling group contiguous in ``nonroot_bfs``.

    Numbering the leaves depth-first makes every subtree a contiguous range:
    ``span[n]`` is the ``[lo, hi)`` of the n-th node of ``nodes_bfs`` and
    ``dfs_pos[i]`` the depth-first position of class ``i``.

    The same rows of ``nodes_bfs`` lay the tree out as integers:
    ``parent_row`` (``int32``, the root its own parent), ``depth_row``, and
    the ``(L, tree_height + 1)`` ``lineage`` table, whose row ``i`` runs from
    class ``i`` up to the root and repeats the root to the end.
    """

    def __init__(self, root: str, children: dict[str, list[str]], leaves: list[str]):
        self.root = root
        self.children = {n: list(c) for n, c in children.items()}
        self.leaves = list(leaves)
        self._validate_and_index()

    def _validate_and_index(self) -> None:
        # One depth-first walk rejects a child reached twice; the keys it
        # misses are detached (and so are their children). Parents precede
        # their children in it, and sorted stably by depth it is breadth-first.
        self._preorder = _preorder(self.root, self.children)
        detached = sorted(set(self.children) - set(self._preorder))
        if detached:
            raise HierarchyError(f"nodes unreachable from root: {detached}")
        parent, depth = {}, {self.root: 0}
        for node in self._preorder:
            kids = self.children.setdefault(node, [])
            parent.update(dict.fromkeys(kids, node))
            depth.update(dict.fromkeys(kids, depth[node] + 1))
            if node != self.root and len(kids) == 1:
                raise HierarchyError(f"internal node {node!r} has a single child")
        self.parent, self.depth = parent, depth
        self.nodes_bfs = sorted(self._preorder, key=depth.__getitem__)
        self.nonroot_bfs = self.nodes_bfs[1:]
        # Depth-first leaf numbering: every subtree is the contiguous span
        # [lo, hi) of ``dfs_leaves``, since children are visited in order.
        dfs_leaves = [n for n in self._preorder if not self.children[n]]
        if sorted(dfs_leaves) != sorted(self.leaves):
            extra = set(dfs_leaves).difference(self.leaves)
            lost = set(self.leaves).difference(dfs_leaves)
            raise HierarchyError(
                f"node {min(extra)!r} has no children but is not a class" if extra
                else f"class {min(lost)!r} is not a node with no children" if lost
                else "class list contains duplicates")
        lo = {leaf: i for i, leaf in enumerate(dfs_leaves)}
        hi = {leaf: i + 1 for i, leaf in enumerate(dfs_leaves)}
        # Heights and spans bottom-up in reverse preorder.
        height = dict.fromkeys(dfs_leaves, 0)
        for node in reversed(self._preorder):
            kids = self.children[node]
            if kids:
                height[node] = 1 + max(height[k] for k in kids)
                lo[node], hi[node] = lo[kids[0]], hi[kids[-1]]
        self.height = height
        self.tree_height = height[self.root]
        self.leaf_index = {leaf: i for i, leaf in enumerate(self.leaves)}
        self.node_index = index = {n: i for i, n in enumerate(self.nodes_bfs)}
        self.parent_row = np.array([0] + [index[parent[n]] for n in self.nonroot_bfs],
                                   dtype=np.int32)
        self.depth_row = np.array([depth[n] for n in self.nodes_bfs])
        lineage = np.empty((self.tree_height + 1, len(self.leaves)), dtype=np.int32)
        lineage[0] = [index[leaf] for leaf in self.leaves]
        for j in range(1, len(lineage)):  # one depth level a gather
            self.parent_row.take(lineage[j - 1], out=lineage[j])
        self.lineage = lineage.T.copy()
        self.dfs_pos = np.array([lo[leaf] for leaf in self.leaves], dtype=np.int64)
        self.span = np.array([(lo[n], hi[n]) for n in self.nodes_bfs], dtype=np.int64)
        self._lca_height_matrix = None
        self._leaf_membership = None

    # -- queries ---------------------------------------------------------

    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes_bfs)

    def lca_height_matrix(self) -> np.ndarray:
        """(L, L) matrix of pairwise leaf LCA heights, canonical order,
        cached and read-only. It stays in ``np.min_scalar_type(tree_height)``,
        one byte per entry up to height 255: means and divisions of it
        convert each entry to float64, so no caller needs a wider type.

        Number the leaves depth-first. The LCA of the leaves at positions
        ``p < q`` is the highest of the LCAs of the neighbouring pairs from
        ``p`` to ``q``: all lie in its subtree and one of them is it. So its
        height is ``max(gap[p:q])``, where ``gap[k]`` is the LCA height of
        positions ``k`` and ``k + 1``: the height of the parent of the one
        child, not a last child, whose span ends at ``k + 1``. Each
        canonical row is filled in depth-first order in one row buffer, by
        running maxima of ``gap`` outward from the row's class, and
        gathered into canonical columns. Nothing larger than a row is
        allocated besides the result.
        """
        if self._lca_height_matrix is None:
            L, dtype = self.num_leaves, np.min_scalar_type(self.tree_height)
            height = np.fromiter(map(self.height.__getitem__, self.nodes_bfs),
                                 dtype, self.num_nodes)
            hi, par = self.span[1:, 1], self.parent_row[1:]
            inner = hi < self.span[par, 1]  # not its parent's last child
            gap = np.zeros(L - 1, dtype=dtype)
            gap[hi[inner] - 1] = height[par[inner]]
            H, row = np.empty((L, L), dtype=dtype), np.zeros(L, dtype=dtype)
            for i, p in enumerate(self.dfs_pos):
                np.maximum.accumulate(gap[p:], out=row[p + 1:])
                np.maximum.accumulate(gap[:p][::-1], out=row[:p][::-1])
                row[p] = 0
                H[i] = row[self.dfs_pos]
            H.setflags(write=False)
            self._lca_height_matrix = H
        return self._lca_height_matrix

    def distance_matrix(self) -> np.ndarray:
        """(L, L) matrix of normalized LCA distances in [0, 1]."""
        if self.tree_height == 0:
            return np.zeros((self.num_leaves, self.num_leaves))
        return self.lca_height_matrix() / float(self.tree_height)

    def leaf_membership(self) -> np.ndarray:
        """(num_nodes, L) 0/1 matrix, cached and read-only: entry (n, j) is 1
        iff leaf j lies in the subtree rooted at the n-th node of
        ``nodes_bfs`` (node-or-self).

        Row n is 1 at the canonical indices of the leaves in the node's
        depth-first span ``[lo, hi)``.
        """
        if self._leaf_membership is None:
            lo, hi, pos = self.span[:, :1], self.span[:, 1:], self.dfs_pos
            self._leaf_membership = ((lo <= pos) & (pos < hi)).astype(float)
            self._leaf_membership.setflags(write=False)
        return self._leaf_membership

    # -- serialization ---------------------------------------------------

    def export_edges(self) -> str:
        """Edge list in depth-first order from the root (diff-stable)."""
        return "".join(f"{node}\t{child}\n" for node in self._preorder
                       for child in self.children[node])

    def hash_hex(self) -> str:
        """Stable 16-hex-digit digest of structure plus canonical leaf order."""
        payload = self.export_edges() + "\x00" + "\n".join(self.leaves)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Taxonomy):
            return NotImplemented
        return (self.root == other.root and self.children == other.children
                and self.leaves == other.leaves)

    def __repr__(self) -> str:
        return (f"Taxonomy(root={self.root!r}, nodes={self.num_nodes}, "
                f"leaves={self.num_leaves}, height={self.tree_height})")


def prune_to_tree(graph: TaxonomyGraph, leaves: list[str]) -> Taxonomy:
    """Extract a tree from a DAG by keeping, for each class, its longest path
    to the root.

    Classes are processed in list order. Among the longest class-to-root
    paths, the one adding the fewest nodes not already in the growing tree
    wins; remaining ties fall to the lexicographically smallest node-id
    sequence (read from the class toward the root). The first parent assigned
    to a node is final, which keeps the growing structure a tree. Afterwards
    every single-child node other than the root is spliced out and the class
    list becomes the canonical leaf order. The tree grows as one ordered
    children map whose keys are its nodes, and that map builds the result.

    A longest path steps from each node to a parent exactly one level
    shallower in ``graph.depth``. For each class, the nodes on such paths up
    to the growing tree are visited shallowest first, and each keeps one
    step up: the parent whose best path adds the fewest new nodes, then the
    smallest parent id. Candidate paths through distinct parents first
    differ at that parent, so this is the whole-sequence order.
    """
    if not leaves:
        raise HierarchyError("class list is empty")
    roots = graph.roots()
    if len(roots) != 1:
        raise HierarchyError(f"expected exactly one root, found {roots}")
    root = roots[0]
    for cls in leaves:
        if cls not in graph.nodes:
            raise UnknownNodeError(f"class {cls!r} is not a node of the graph")

    depth = graph.depth

    def steps_up(node: str) -> list[str]:
        return [p for p in graph.parents_of[node] if depth[p] == depth[node] - 1]

    tree: dict[str, list[str]] = {root: []}  # one key per tree node
    for cls in leaves:
        # The nodes on the class's longest root paths, up to the growing
        # tree, one depth level a set.
        levels = [{cls}]
        while levels[-1]:
            levels.append({p for node in levels[-1] if node not in tree
                           for p in steps_up(node)})
        # (new nodes on the node's best path, its step up), shallowest first.
        best: dict[str, tuple[int, str]] = {}
        for level in reversed(levels):
            for node in level:
                if node in tree:
                    best[node] = (0, node)  # the path ends here
                else:
                    count, par = min((best[p][0], p) for p in steps_up(node))
                    best[node] = (count + 1, par)
        node = cls
        tree.setdefault(cls, [])
        while best[node][0]:  # a new node: hang it under its step up
            par = best[node][1]
            tree.setdefault(par, []).append(node)
            node = par

    for cls in leaves:
        if tree[cls]:
            raise HierarchyError(
                f"class {cls!r} lies on the kept path of another class"
            )

    _splice_single_child(tree)
    return Taxonomy(root, tree, leaves)


def _splice_single_child(children: dict[str, list[str]]) -> None:
    """Give each child slot the lowest node of the single-child chain that
    starts there, and drop the chain's other nodes. The root is no node's
    child, so it may keep one child. Every node is a key; the key order
    cannot change the result, as replacing a slot keeps each list's length."""
    spliced = set()
    for kids in children.values():
        for i, kid in enumerate(kids):
            while len(children[kid]) == 1:
                spliced.add(kid)
                kid = children[kid][0]
            kids[i] = kid
    for node in spliced:
        del children[node]


def load_taxonomy(edge_text: str, leaves: list[str], source: str = "",
                  classes_source: str = "") -> Taxonomy:
    """Parse an edge list (errors name ``source``, the option or key and the
    file) and prune it to a tree over ``leaves`` (errors also name their
    ``classes_source``). On input that is already a pruned tree this is the
    identity, so exported taxonomies reload through the same path.
    """
    graph = load_edges(edge_text, source)
    try:
        return prune_to_tree(graph, leaves)
    except HierarchyError as exc:
        raise _named(exc, ", ".join(filter(None, (classes_source, source)))) from None


def apply_edits(tax: Taxonomy, edits: list[tuple[str, str]]) -> Taxonomy:
    """Reparent nodes in a copy of the children map and re-run the splice;
    the result keeps ``tax.leaves``, so ``Taxonomy`` rejects edits that give
    a class a child, splice one away or leave an inner node with no children.

    Each edit is ``(node, new_parent)``. Edits apply sequentially; a node may
    not be the root and its new parent may not lie inside its own subtree
    (that would create a cycle).
    """
    children = {n: list(c) for n, c in tax.children.items()}
    for node, new_parent in edits:
        if node == tax.root:
            raise HierarchyError("cannot reparent the root")
        for known in (node, new_parent):
            if known not in children:
                raise UnknownNodeError(f"unknown node {known!r}")
        if new_parent in _preorder(node, children):
            raise CycleError(f"reparenting {node!r} under {new_parent!r} "
                             "creates a cycle")
        next(kids for kids in children.values() if node in kids).remove(node)
        children[new_parent].append(node)
    _splice_single_child(children)
    return Taxonomy(tax.root, children, tax.leaves)


def _preorder(root: str, children: dict[str, list[str]]) -> list[str]:
    """Depth-first preorder from ``root``, children in stored order; a node
    reached twice raises ``CycleError``."""
    out, stack, seen = [], [root], {root}
    while stack:
        node = stack.pop()
        out.append(node)
        kids = children.get(node, [])
        for kid in kids:
            if kid in seen:
                raise CycleError(f"node {kid!r} reached twice")
            seen.add(kid)
        stack.extend(reversed(kids))
    return out


def randomize_leaves(tax: Taxonomy, seed: int) -> Taxonomy:
    """Permute which class label sits at which structural leaf slot.

    The tree shape and internal nodes are untouched and the canonical class
    order is preserved, so the multiset of pairwise LCA heights is invariant
    while individual pair distances change. The permutation is uniformly
    random and deterministic per seed.
    """
    relabel = dict(leaf_permutation(tax, seed))

    def ren(n: str) -> str:
        return relabel.get(n, n)

    children = {ren(n): [ren(c) for c in kids] for n, kids in tax.children.items()}
    return Taxonomy(tax.root, children, list(tax.leaves))


def leaf_permutation(tax: Taxonomy, seed: int) -> list[tuple[str, str]]:
    """Audit trail for ``randomize_leaves``: (label before, label after) per
    structural leaf slot, in canonical order."""
    perm = np.random.default_rng(seed).permutation(tax.num_leaves)
    return [(tax.leaves[i], tax.leaves[perm[i]]) for i in range(tax.num_leaves)]
