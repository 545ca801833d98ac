import itertools
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (TOY_TREE_EDGES, TOY_TREE_LEAVES, ancestry, brute_lca,
                      lca, lca_height, make_balanced_tree, make_random_dag,
                      make_random_tree, normalized_distance, shaped_trees)
from hiercls.taxonomy import (CycleError, EdgeListParseError, HierarchyError,
                              Taxonomy, TaxonomyGraph, UnknownNodeError,
                              _splice_single_child, apply_edits,
                              leaf_permutation, load_edges, load_taxonomy,
                              prune_to_tree, randomize_leaves)


class TestLoadEdges:
    def test_basic_parse(self):
        g = load_edges("R\tD\nR\tC\nD\tA\nD\tB")
        assert len(g.nodes) == 5
        assert len(g.edges) == 4

    def test_self_loop_is_cycle(self):
        with pytest.raises(CycleError):
            load_edges("R\tR")

    def test_longer_cycle(self):
        with pytest.raises(CycleError):
            load_edges("A\tB\nB\tC\nC\tA")

    def test_duplicate_edges_collapse(self):
        once = load_edges("R\tD\nD\tA")
        twice = load_edges("R\tD\nD\tA\nD\tA")
        assert once.edges == twice.edges

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            load_edges("R\tD\n# fine\nnot-an-edge\n")

    def test_empty_id_rejected(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            load_edges("\tD\n")

    def test_node_id_starting_with_hash_rejected(self):
        with pytest.raises(EdgeListParseError, match="line 2: node id '#A'"):
            load_edges("R\tB\nR\t#A\n")

    def test_comments_and_blanks_skipped(self):
        g = load_edges("# heading\n\nR\tD\n")
        assert g.edges == frozenset({("R", "D")})

    @pytest.mark.parametrize("text, message", [
        ("R\t A \nR\tB\n", "line 1: node id ' A ' has surrounding whitespace"),
        ("R\tB\nR\tA \n", "line 2: node id 'A ' has surrounding whitespace"),
        ("R \tA\nR\tB\n", "line 1: node id 'R ' has surrounding whitespace"),
        ("R\tA\n R\tB\n", "line 2: node id ' R' has surrounding whitespace"),
        ("R\tA\t\n", "line 1: expected 'parent<TAB>child'"),
    ], ids=["both_sides", "trailing", "parent_trailing", "leading",
            "trailing_tab"])
    def test_node_id_taken_verbatim(self, text, message):
        # Such ids used to be stripped silently.
        with pytest.raises(EdgeListParseError, match=re.escape(message)):
            load_edges(text)

    @pytest.mark.parametrize("text, on_or_below", [
        ("R\tA\nA\tA\n", {"A"}),
        ("R\tA\nA\tB\nB\tA\n", {"A", "B"}),
        ("R\tA\nX\tY\nY\tX\n", {"X", "Y"}),
        ("R\tX\nX\tY\nY\tX\nY\tA\nA\tB\n", {"X", "Y", "A", "B"}),
    ], ids=["self_loop", "reachable_from_root", "detached_under_valid_root",
            "below_a_cycle"])
    def test_cycle_error_names_a_node_on_or_below_the_cycle(self, text,
                                                            on_or_below):
        with pytest.raises(CycleError, match="lies on a cycle or below one") as err:
            load_edges(text)
        assert re.search(r"node '(\w+)'", str(err.value)).group(1) in on_or_below


class TestTaxonomyValidation:
    @pytest.mark.parametrize("children, error, match", [
        ({"R": ["A", "A"]}, CycleError, "'A' reached twice"),
        ({"R": ["A"], "A": ["B", "C"], "B": ["R"]},
         CycleError, "'R' reached twice"),
        ({"R": ["C"], "A": ["B"], "B": ["A"]},
         HierarchyError, r"unreachable from root: \['A', 'B'\]"),
    ], ids=["repeated_child", "edge_back_to_root", "detached_cycle"])
    def test_malformed_maps_rejected(self, children, error, match):
        with pytest.raises(error, match=match):
            Taxonomy("R", children, ["C"])


def small_layered_dag(rng: np.random.Generator):
    """A single-rooted DAG of at most 12 nodes and a class list drawn from
    its sinks. Nodes sit on levels; most parents are one level up, some are
    shortcuts from further up, so a class often has several longest root
    paths. Ids are shuffled against the levels."""
    n = int(rng.integers(4, 13))
    names = [f"n{k}" for k in rng.permutation(n)]
    level = [0] + sorted(int(v) for v in rng.integers(1, 5, size=n - 1))
    edges = set()
    for i in range(1, n):
        above = [j for j in range(i) if level[j] < level[i]]
        near = [j for j in above if level[j] == level[i] - 1] or above
        for j in rng.choice(near, size=min(len(near), int(rng.integers(1, 4))),
                            replace=False):
            edges.add((names[j], names[i]))
        if rng.random() < 0.3:
            edges.add((names[int(rng.choice(above))], names[i]))
    sinks = sorted({c for _, c in edges} - {p for p, _ in edges})
    classes = [str(c) for c in rng.permutation(sinks)]
    return edges, classes


def splice_oracle(root: str, children: dict[str, list[str]]):
    """Remove the first non-root single-child node in key order, its child
    taking its slot under its parent, until none is left; returns
    ``children``."""
    while True:
        single = [n for n, kids in children.items() if n != root and len(kids) == 1]
        if not single:
            return children
        node = single[0]
        (child,) = children.pop(node)
        siblings = next(kids for kids in children.values() if node in kids)
        siblings[siblings.index(node)] = child


def prune_oracle(edges, classes) -> Taxonomy:
    """Brute force over whole paths: for each class in order, every longest
    class-to-root path, the minimum (nodes not yet in the tree, path) spliced
    in; then non-root single-child nodes removed one at a time."""
    parents: dict[str, list[str]] = {}
    for p, c in edges:
        parents.setdefault(c, []).append(p)
    root, = {p for p, _ in edges} - set(parents)

    def paths_up(node):
        if node == root:
            return [(root,)]
        return [(node,) + rest for p in parents[node] for rest in paths_up(p)]

    children: dict[str, list[str]] = {root: []}  # one key per tree node
    for cls in classes:
        paths = paths_up(cls)
        longest = max(map(len, paths))
        _, path = min((sum(n not in children for n in p), p)
                      for p in paths if len(p) == longest)
        tree = set(children)
        for node, par in zip(path, path[1:]):
            if node in tree:
                break
            children.setdefault(node, [])
            children.setdefault(par, []).append(node)
    return Taxonomy(root, splice_oracle(root, children), classes)


class TestPruneToTree:
    def test_matches_whole_path_oracle_on_small_dags(self):
        rng = np.random.default_rng(20)
        for _ in range(400):
            edges, classes = small_layered_dag(rng)
            graph = TaxonomyGraph.from_edges(edges)
            t = prune_to_tree(graph, classes)
            expected = prune_oracle(edges, classes)
            assert t.export_edges() == expected.export_edges(), (edges, classes)
            assert t.parent == expected.parent
            longest = dict.fromkeys(graph.nodes, 0)
            for _ in graph.nodes:  # relax every edge once per node
                for p, c in edges:
                    longest[c] = max(longest[c], longest[p] + 1)
            assert graph.depth == longest

    def test_deep_chain_with_shortcuts_prunes_without_recursion(self):
        n = 3000  # above the default recursion limit
        assert n > sys.getrecursionlimit()
        edges = ([(f"c{i}", f"c{i + 1}") for i in range(n)]
                 + [(f"c{i}", f"c{i + 2}") for i in range(n - 1)]
                 + [(f"c{n // 2}", "side")])
        graph = TaxonomyGraph.from_edges(edges)
        assert graph.depth[f"c{n}"] == n and graph.depth["side"] == n // 2 + 1
        t = prune_to_tree(graph, [f"c{n}", "side"])
        assert t.export_edges() == (f"c0\tc{n // 2}\nc{n // 2}\tc{n}\n"
                                    f"c{n // 2}\tside\n")

    def test_longest_path_kept_then_spliced(self):
        # Both R->A and R->X->A exist; the long route wins, then the
        # single-child X disappears.
        t = prune_to_tree(load_edges("R\tX\nX\tA\nR\tA"), ["A"])
        assert t.parent == {"A": "R"}
        assert t.export_edges() == "R\tA\n"

    def test_tree_input_is_fixed_point(self, toy_tree):
        again = prune_to_tree(load_edges(TOY_TREE_EDGES), TOY_TREE_LEAVES)
        assert again == toy_tree

    def test_no_splice_on_branching_kept_paths(self):
        t = prune_to_tree(load_edges("R\tX\nX\tA\nX\tB\nR\tC"), ["A", "B", "C"])
        assert t.parent == {"X": "R", "A": "X", "B": "X", "C": "R"}

    def test_multi_root_rejected(self):
        with pytest.raises(HierarchyError, match="one root"):
            prune_to_tree(load_edges("R\tA\nS\tB"), ["A", "B"])

    def test_unknown_class_rejected(self):
        with pytest.raises(UnknownNodeError, match="Z"):
            prune_to_tree(load_edges("R\tA"), ["Z"])

    def test_duplicate_classes_rejected(self):
        with pytest.raises(HierarchyError, match="duplicates"):
            prune_to_tree(load_edges("R\tA\nR\tB"), ["A", "A"])

    def test_class_on_another_classes_path_rejected(self):
        with pytest.raises(HierarchyError, match="kept path"):
            prune_to_tree(load_edges("R\tM\nM\tA"), ["M", "A"])

    def test_min_new_nodes_beats_lexicographic(self):
        # For A, the path through Q reuses the tree grown for B even though
        # the P route is lexicographically smaller.
        g = load_edges("R\tP\nR\tQ\nP\tA\nQ\tA\nQ\tB")
        t = prune_to_tree(g, ["B", "A"])
        assert t.parent["A"] == "Q"
        assert "P" not in t.parent

    def test_lexicographic_tie_break(self):
        # P and Q are symmetric; the P route wins on node-id order.
        g = load_edges("R\tP\nR\tQ\nP\tA\nQ\tA\nP\tB\nQ\tB")
        t = prune_to_tree(g, ["A", "B"])
        assert t.parent["A"] == "P"
        assert t.parent["B"] == "P"
        assert "Q" not in t.parent

    def test_leaf_order_is_canonical_class_order(self):
        t = prune_to_tree(load_edges(TOY_TREE_EDGES), ["C", "A", "B"])
        assert t.leaves == ["C", "A", "B"]
        assert t.leaf_index == {"C": 0, "A": 1, "B": 2}

    @settings(max_examples=100, deadline=None)
    @given(shaped_trees(), st.data())
    def test_splice_ignores_key_order(self, tax, data):
        # Stretch edges into single-child chains of up to three new nodes,
        # maybe under a new root whose one child starts a chain, then splice
        # with the keys shuffled and compare with the one-at-a-time oracle.
        children = {n: list(kids) for n, kids in tax.children.items()}
        fresh = (f"x{i}" for i in itertools.count())
        root, expected = tax.root, dict(tax.children)
        if len(tax.children[root]) > 1 and data.draw(st.booleans()):
            root, expected = "top", dict(expected, top=[tax.root])
            children["top"] = [tax.root]
        for kids in list(children.values()):
            for i, kid in enumerate(kids):
                for _ in range(data.draw(st.integers(0, 3))):
                    link = next(fresh)
                    children[link], kid = [kid], link
                kids[i] = kid
        order = data.draw(st.permutations(list(children)))
        shuffled = {n: list(children[n]) for n in order}
        _splice_single_child(shuffled)
        assert shuffled == splice_oracle(root, children) == expected

    def test_random_dags_satisfy_contract(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            graph, classes = make_random_dag(rng, max_nodes=120)
            t = prune_to_tree(graph, classes)
            assert len(t.parent) == t.num_nodes - 1
            assert sorted(t.leaves) == sorted(classes)
            for node in t.nodes_bfs:
                kids = t.children[node]
                if node != t.root and kids:
                    assert len(kids) >= 2
                for kid in kids:
                    assert t.depth[kid] == t.depth[node] + 1
            assert t.tree_height == max(t.depth[l] for l in t.leaves)

    def test_kept_lineage_is_longest_path(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            graph, classes = make_random_dag(rng, max_nodes=60)
            # Longest distance to the root in the DAG, by memo-free DP.
            dist = {}

            def longest(v):
                if v not in dist:
                    ps = graph.parents_of[v]
                    dist[v] = 0 if not ps else 1 + max(longest(p) for p in ps)
                return dist[v]

            t = prune_to_tree(graph, classes)
            for cls in classes:
                spliced_depth = t.depth[cls]
                assert spliced_depth <= longest(cls)


class TestApplyEdits:
    def test_empty_edit_list_is_identity(self, toy_tree):
        assert apply_edits(toy_tree, []) == toy_tree

    def test_self_parent_rejected(self, toy_tree):
        with pytest.raises(CycleError):
            apply_edits(toy_tree, [("A", "A")])

    def test_cycle_creating_edit_rejected(self, toy_tree):
        with pytest.raises(CycleError):
            apply_edits(toy_tree, [("D", "A")])

    def test_root_reparent_rejected(self, toy_tree):
        with pytest.raises(HierarchyError):
            apply_edits(toy_tree, [("R", "D")])

    def test_reparent_cascades_splices(self, toy_tree):
        # Moving A under class C leaves both C and D with one child each;
        # splicing both would drop class C, so the edit is rejected.
        with pytest.raises(HierarchyError,
                           match="class 'C' is not a node with no children"):
            apply_edits(toy_tree, [("A", "C")])

    def test_reparent_into_branching_target(self):
        edges = "R\tD\nR\tE\nD\tA\nD\tB\nE\tC\nE\tF"
        t = prune_to_tree(load_edges(edges), ["A", "B", "C", "F"])
        edited = apply_edits(t, [("A", "E")])
        assert edited.parent["A"] == "E"
        # D lost A, keeps only B, so D is spliced out.
        assert edited.parent["B"] == "R"
        assert edited.leaves == ["A", "B", "C", "F"]

    def test_single_child_root_survives(self):
        edges = "R\tD\nR\tC\nD\tA\nD\tB"
        t = prune_to_tree(load_edges(edges), ["A", "B", "C"])
        edited = apply_edits(t, [("C", "D")])
        # Root now has the single child D; the root is exempt from splicing.
        assert edited.parent == {"D": "R", "A": "D", "B": "D", "C": "D"}

    def test_unknown_nodes_rejected(self, toy_tree):
        with pytest.raises(UnknownNodeError):
            apply_edits(toy_tree, [("Z", "R")])
        with pytest.raises(UnknownNodeError):
            apply_edits(toy_tree, [("A", "Z")])


class TestLcaQueries:
    """The LCA walks in ``conftest`` are the oracles; the span-built
    ``lca_height_matrix`` and ``distance_matrix`` are checked against them."""

    def test_toy_tree_values(self, toy_tree):
        assert lca(toy_tree, "A", "B") == "D"
        assert lca(toy_tree, "A", "A") == "A"
        assert lca(toy_tree, "A", "C") == "R"
        assert lca_height(toy_tree, "A", "B") == 1
        assert lca_height(toy_tree, "A", "A") == 0
        assert lca_height(toy_tree, "A", "C") == 2
        np.testing.assert_array_equal(toy_tree.lca_height_matrix()[0], [0, 1, 2])

    def test_normalized_distance(self, toy_tree):
        assert normalized_distance(toy_tree, "A", "B") == 0.5
        assert normalized_distance(toy_tree, "A", "A") == 0.0
        assert normalized_distance(toy_tree, "A", "C") == 1.0
        np.testing.assert_array_equal(toy_tree.distance_matrix()[0], [0.0, 0.5, 1.0])

    def test_unknown_node(self, toy_tree):
        with pytest.raises(UnknownNodeError):
            lca(toy_tree, "A", "Z")

    def test_matches_bruteforce_on_random_trees(self):
        rng = np.random.default_rng(2)
        for _ in range(150):
            t = make_random_tree(rng, max_nodes=120)
            nodes = t.nodes_bfs
            for _ in range(15):
                a = nodes[rng.integers(len(nodes))]
                b = nodes[rng.integers(len(nodes))]
                assert lca(t, a, b) == brute_lca(t, a, b)

    def test_lca_height_symmetric_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            t = make_random_tree(rng, max_nodes=60)
            leaves = t.leaves
            for _ in range(10):
                a = leaves[rng.integers(len(leaves))]
                b = leaves[rng.integers(len(leaves))]
                h = lca_height(t, a, b)
                assert h == lca_height(t, b, a)
                assert (h == 0) == (a == b)
                assert h <= t.tree_height

    def test_distance_is_ultrametric_on_leaves(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            t = make_random_tree(rng, max_nodes=50)
            ls = t.leaves
            for _ in range(40):
                a, b, c = (ls[rng.integers(len(ls))] for _ in range(3))
                dab = normalized_distance(t, a, b)
                dbc = normalized_distance(t, b, c)
                dac = normalized_distance(t, a, c)
                assert dac <= max(dab, dbc) + 1e-12
                assert 0.0 <= dac <= 1.0

    def test_lca_height_matrix_consistency(self, toy_tree):
        H = toy_tree.lca_height_matrix()
        for i, a in enumerate(toy_tree.leaves):
            for j, b in enumerate(toy_tree.leaves):
                assert H[i, j] == lca_height(toy_tree, a, b)


class TestRandomize:
    def test_same_seed_reproducible(self, toy_tree):
        a = randomize_leaves(toy_tree, 99)
        b = randomize_leaves(toy_tree, 99)
        assert a == b
        assert a.export_edges() == b.export_edges()

    def test_pairwise_height_multiset_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            t = make_random_tree(rng, max_nodes=60)
            r = randomize_leaves(t, int(rng.integers(1_000_000)))
            assert r.leaves == t.leaves
            orig = sorted(t.lca_height_matrix().ravel().tolist())
            perm = sorted(r.lca_height_matrix().ravel().tolist())
            assert orig == perm

    def test_swap_changes_sibling_height(self, toy_tree):
        # Find a seed whose permutation swaps A and C, leaving B in place.
        seed = next(s for s in range(1000)
                    if leaf_permutation(toy_tree, s) ==
                    [("A", "C"), ("B", "B"), ("C", "A")])
        r = randomize_leaves(toy_tree, seed)
        H, i = r.lca_height_matrix(), r.leaf_index
        assert H[i["A"], i["B"]] == 2
        assert H[i["C"], i["B"]] == 1

    def test_structure_unchanged(self, toy_tree):
        r = randomize_leaves(toy_tree, 7)
        assert r.root == toy_tree.root
        assert r.tree_height == toy_tree.tree_height
        assert sorted(r.depth.values()) == sorted(toy_tree.depth.values())


class TestExportImport:
    def test_round_trip(self, toy_tree):
        text = toy_tree.export_edges()
        assert load_taxonomy(text, toy_tree.leaves) == toy_tree

    def test_export_depth_first_order(self, toy_tree):
        assert toy_tree.export_edges() == "R\tD\nR\tC\nD\tA\nD\tB\n"

    def test_round_trip_random(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            t = make_random_tree(rng, max_nodes=80)
            assert load_taxonomy(t.export_edges(), t.leaves) == t

    def test_hash_tracks_structure_and_leaf_order(self, toy_tree):
        other = randomize_leaves(toy_tree, 1)
        same = prune_to_tree(load_edges(TOY_TREE_EDGES), TOY_TREE_LEAVES)
        assert toy_tree.hash_hex() == same.hash_hex()
        if other != toy_tree:
            assert other.hash_hex() != toy_tree.hash_hex()


def assert_span_matrices_match_oracles(tax):
    expected = np.array([[lca_height(tax, a, b) for b in tax.leaves]
                         for a in tax.leaves], dtype=np.int64)
    H = tax.lca_height_matrix()
    assert H.dtype == np.min_scalar_type(tax.tree_height)
    np.testing.assert_array_equal(H, expected)
    membership = np.zeros((tax.num_nodes, tax.num_leaves))
    for j, leaf in enumerate(tax.leaves):
        for node in ancestry(tax, leaf):
            membership[tax.node_index[node], j] = 1.0
    np.testing.assert_array_equal(tax.leaf_membership(), membership)
    index = tax.node_index
    assert tax.parent_row.dtype == tax.lineage.dtype == np.int32
    assert tax.parent_row.tolist() == [0] + [index[tax.parent[n]]
                                             for n in tax.nonroot_bfs]
    assert tax.depth_row.tolist() == [tax.depth[n] for n in tax.nodes_bfs]
    for leaf in tax.leaves:
        rows = [index[n] for n in ancestry(tax, leaf)]
        assert tax.lineage[tax.leaf_index[leaf]].tolist() == (
            rows + [0] * (tax.tree_height + 1 - len(rows)))


def assert_rebuilt_from_children_map(tax):
    """The ordered children map alone rebuilds ``tax``, and the derived
    parent map inverts it."""
    rebuilt = Taxonomy(tax.root, tax.children, tax.leaves)
    assert rebuilt == tax
    assert (rebuilt.parent, rebuilt.depth, rebuilt.nodes_bfs) == (
        tax.parent, tax.depth, tax.nodes_bfs)
    assert rebuilt.export_edges() == tax.export_edges()
    assert tax.parent == {kid: node for node, kids in tax.children.items()
                          for kid in kids}


def export_oracle(tax) -> str:
    """Edge list by an explicit stack walk: pop a node, write its child
    edges, push its children in reverse."""
    lines, stack = [], [tax.root]
    while stack:
        node = stack.pop()
        lines.extend(f"{node}\t{child}\n" for child in tax.children[node])
        stack.extend(reversed(tax.children[node]))
    return "".join(lines)


class TestDepthFirstSpans:
    @settings(max_examples=200, deadline=None)
    @given(shaped_trees())
    def test_matrices_match_oracles(self, tax):
        assert_span_matrices_match_oracles(tax)
        assert_rebuilt_from_children_map(tax)
        assert tax.export_edges() == export_oracle(tax)

    @settings(max_examples=100, deadline=None)
    @given(shaped_trees(), st.integers(0, 2**32 - 1))
    def test_randomized_leaves_match_oracles(self, tax, seed):
        randomized = randomize_leaves(tax, seed)
        assert_span_matrices_match_oracles(randomized)
        assert_rebuilt_from_children_map(randomized)

    @settings(max_examples=100, deadline=None)
    @given(shaped_trees(), st.data())
    def test_edited_trees_match_oracles(self, tax, data):
        for _ in range(data.draw(st.integers(1, 3))):
            node = data.draw(st.sampled_from(tax.nonroot_bfs))
            # Inner targets only: an edit that gives a class a child fails.
            targets = [n for n in tax.nodes_bfs
                       if tax.children[n] and node not in ancestry(tax, n)]
            tax = apply_edits(tax, [(node, data.draw(st.sampled_from(targets)))])
        assert_span_matrices_match_oracles(tax)
        assert_rebuilt_from_children_map(tax)

    def test_chain_taller_than_255_matches_oracle(self):
        # Each inner node holds a class and the next inner node, so the
        # height passes uint8's range and the build fills a uint16 matrix.
        height = 260
        children = {f"n{i}": [f"c{i}", f"n{i + 1}"] for i in range(height - 1)}
        children[f"n{height - 1}"] = [f"c{height - 1}", f"c{height}"]
        classes = [f"c{i}" for i in np.random.default_rng(0).permutation(height + 1)]
        tax = Taxonomy("n0", children, classes)
        assert tax.tree_height == height
        assert_span_matrices_match_oracles(tax)

    def test_cached_matrices_are_read_only(self, toy_tree):
        for matrix in (toy_tree.lca_height_matrix(), toy_tree.leaf_membership()):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] += 1
        assert toy_tree.lca_height_matrix()[0, 0] == 0
        assert toy_tree.leaf_membership()[0, 0] == 1.0

    def test_lca_matrix_build_peaks_below_one_and_a_half_results(self):
        tax = make_balanced_tree(3, 6)
        tracemalloc.start()
        try:
            H = tax.lca_height_matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert H.dtype == np.min_scalar_type(tax.tree_height)
        assert H.shape == (729, 729)
        assert peak < 1.5 * H.nbytes, (peak, H.nbytes)
