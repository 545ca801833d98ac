import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import TOY_TREE_EDGES, TOY_TREE_LEAVES
from hiercls import sweep
from hiercls.cli import main
from hiercls.model import SettingError
from hiercls.sweep import parse_sweep_config

TINY_TRAIN = ["--steps", "60", "--batch-size", "16", "--checkpoint-every", "6",
              "--discard-before", "12", "--lr", "0.05", "--ks", "1,2",
              "--split", "0.6,0.2,0.2"]


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "edges.tsv").write_text(TOY_TREE_EDGES)
    (tmp_path / "classes.txt").write_text("\n".join(TOY_TREE_LEAVES) + "\n")
    return tmp_path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def gen_tree_and_data(workdir, per_class=60, noise="0.6") -> tuple[Path, Path]:
    tree = workdir / "tree.tsv"
    data = workdir / "data.csv"
    assert run("hierarchy", "build", "--edges", workdir / "edges.tsv",
               "--classes", workdir / "classes.txt", "--out", tree) == 0
    assert run("gen-data", "--taxonomy", tree, "--classes",
               workdir / "classes.txt", "--per-class", per_class, "--dim", "6",
               "--step-scale", "1.0", "--noise-scale", noise, "--seed", "5",
               "--out", data) == 0
    return tree, data


def body(path: Path) -> list[str]:
    return [l for l in path.read_text().splitlines()
            if l and not l.startswith("#")]


class TestHierarchyCommand:
    def test_build_prunes_toy_dag(self, tmp_path):
        (tmp_path / "edges.tsv").write_text("R\tX\nX\tA\nR\tA\n")
        (tmp_path / "classes.txt").write_text("A\n")
        out = tmp_path / "tree.tsv"
        assert run("hierarchy", "build", "--edges", tmp_path / "edges.tsv",
                   "--classes", tmp_path / "classes.txt", "--out", out) == 0
        assert body(out) == ["R\tA"]
        assert any(l.startswith("# taxonomy_hash=") for l in
                   out.read_text().splitlines())

    def test_build_applies_edits(self, workdir):
        (workdir / "edits.tsv").write_text("C\tD\n")
        out = workdir / "tree.tsv"
        assert run("hierarchy", "build", "--edges", workdir / "edges.tsv",
                   "--classes", workdir / "classes.txt",
                   "--edits", workdir / "edits.tsv", "--out", out) == 0
        assert body(out) == ["R\tD", "D\tA", "D\tB", "D\tC"]

    def test_randomize_deterministic_with_sidecar(self, workdir):
        tree, _ = gen_tree_and_data(workdir, per_class=5)
        outs = []
        for name in ("r1.tsv", "r2.tsv"):
            out = workdir / name
            assert run("hierarchy", "randomize", "--taxonomy", tree,
                       "--classes", workdir / "classes.txt", "--seed", "4",
                       "--out", out) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        sidecar = workdir / "r1.tsv.permutation.csv"
        assert body(sidecar)[0] == "slot,label_before,label_after"
        assert len(body(sidecar)) == 4

    @pytest.mark.parametrize("seed, message", [
        ("x", "--seed: invalid literal for int() with base 10: 'x'"),
        ("-1", "--seed: seed must be >= 0, got -1"),
    ], ids=["not_int", "negative"])
    def test_randomize_bad_seed_exits_2(self, workdir, capsys, seed, message):
        out = workdir / "rand.tsv"
        code = run("hierarchy", "randomize", "--taxonomy", workdir / "edges.tsv",
                   "--classes", workdir / "classes.txt", "--seed", seed,
                   "--out", out)
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_class_id_with_comma_rejected(self, tmp_path, capsys):
        # Such an id could never be a dataset label.
        (tmp_path / "edges.tsv").write_text("R\tA\nR\tB,x\n")
        classes = tmp_path / "classes.txt"
        classes.write_text("A\nB,x\n")
        code = run("hierarchy", "build", "--edges", tmp_path / "edges.tsv",
                   "--classes", classes, "--out", tmp_path / "tree.tsv")
        assert code == 2
        err = capsys.readouterr().err
        assert f"--classes {classes} line 2: class id 'B,x'" in err
        assert not (tmp_path / "tree.tsv").exists()

    @pytest.mark.parametrize("line, problem", [
        (" B", "has surrounding whitespace"),
        ("B ", "has surrounding whitespace"),
        ("\tB", "has surrounding whitespace"),
        ("B\tx", "contains a tab"),
    ])
    def test_class_id_taken_verbatim(self, tmp_path, capsys, line, problem):
        # Such ids used to be stripped silently.
        (tmp_path / "edges.tsv").write_text("R\tA\nR\tB\n")
        classes = tmp_path / "classes.txt"
        classes.write_text(f"A\n{line}\n")
        code = run("hierarchy", "build", "--edges", tmp_path / "edges.tsv",
                   "--classes", classes, "--out", tmp_path / "tree.tsv")
        assert code == 2
        err = capsys.readouterr().err
        assert f"--classes {classes} line 2: class id {line!r} {problem}" in err
        assert not (tmp_path / "tree.tsv").exists()

    def test_node_id_starting_with_hash_rejected(self, tmp_path, capsys):
        # The class list reads '#A' as a comment, so this built a 2-leaf tree.
        (tmp_path / "edges.tsv").write_text("R\tB\nR\t#A\nR\tC\n")
        (tmp_path / "classes.txt").write_text("#A\nB\nC\n")
        code = run("hierarchy", "build", "--edges", tmp_path / "edges.tsv",
                   "--classes", tmp_path / "classes.txt",
                   "--out", tmp_path / "tree.tsv")
        assert code == 2
        assert "line 2: node id '#A' starts with '#'" in capsys.readouterr().err
        assert not (tmp_path / "tree.tsv").exists()

    def test_edge_list_node_id_with_whitespace_exits_2(self, workdir, capsys):
        # Such ids used to be stripped silently.
        (workdir / "edges.tsv").write_text("R\tD\nR\tC\nD\t A\nD\tB\n")
        code = run("hierarchy", "build", "--edges", workdir / "edges.tsv",
                   "--classes", workdir / "classes.txt",
                   "--out", workdir / "tree.tsv")
        assert code == 2
        assert ("line 3: node id ' A' has surrounding whitespace"
                in capsys.readouterr().err)
        assert not (workdir / "tree.tsv").exists()

    @pytest.mark.parametrize("command", ["build", "gen-data", "sweep"])
    def test_edge_list_error_names_option_and_file(self, workdir, capsys,
                                                   command):
        bad = workdir / "bad_edges.tsv"
        bad.write_text("R\tD\nR\tC\nD\t A\nD\tB\n")
        out = workdir / "out"
        classes = workdir / "classes.txt"
        if command == "build":
            code = run("hierarchy", "build", "--edges", bad, "--classes",
                       classes, "--out", out)
            source = f"--edges {bad}"
        elif command == "gen-data":
            code = run("gen-data", "--taxonomy", bad, "--classes", classes,
                       "--out", out)
            source = f"--taxonomy {bad}"
        else:
            cfg = write_sweep_config(workdir, bad, workdir / "data.csv")
            code = run("sweep", "--config", cfg, "--out", out)
            source = f"taxonomy {bad}"
        assert code == 2
        assert (f"error: {source} line 3: node id ' A' has surrounding "
                "whitespace") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["cycle", "unknown_class"])
    @pytest.mark.parametrize("command", ["build", "gen-data", "sweep"])
    def test_cycle_and_unknown_class_name_the_source(self, workdir, capsys,
                                                     command, case):
        edges = workdir / "bad_edges.tsv"
        classes = workdir / "classes.txt"
        if case == "cycle":
            edges.write_text(TOY_TREE_EDGES + "A\tX\nX\tA\n")
            message = "node 'A' lies on a cycle or below one"
        else:
            edges.write_text(TOY_TREE_EDGES)
            classes = workdir / "more_classes.txt"
            classes.write_text("A\nB\nZ\n")
            message = "class 'Z' is not a node of the graph"
        out = workdir / "out"
        if command == "build":
            code = run("hierarchy", "build", "--edges", edges, "--classes",
                       classes, "--out", out)
            source = f"--edges {edges}"
        elif command == "gen-data":
            code = run("gen-data", "--taxonomy", edges, "--classes", classes,
                       "--out", out)
            source = f"--taxonomy {edges}"
        else:
            cfg = write_sweep_config(workdir, edges, workdir / "data.csv",
                                     classes=classes.name)
            code = run("sweep", "--config", cfg, "--out", out)
            source = f"taxonomy {edges}"
        if case == "unknown_class":
            option = "classes" if command == "sweep" else "--classes"
            source = f"{option} {classes}, {source}"
        assert code == 2
        assert f"error: {source}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edits, message", [
        ("C \tD\n", "--edits line 1: node id 'C ' has surrounding whitespace"),
        ("# move C\n\nC\tD \n",
         "--edits line 3: node id 'D ' has surrounding whitespace"),
        ("C\tD\tR\n", "--edits line 1: expected 'node<TAB>new_parent'"),
        ("C\t\n", "--edits line 1: node id '' is empty"),
    ], ids=["trailing_space", "after_comment_and_blank", "three_fields",
            "empty_parent"])
    def test_bad_edits_line_exits_2(self, workdir, capsys, edits, message):
        (workdir / "edits.tsv").write_text(edits)
        code = run("hierarchy", "build", "--edges", workdir / "edges.tsv",
                   "--classes", workdir / "classes.txt",
                   "--edits", workdir / "edits.tsv", "--out", workdir / "tree.tsv")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (workdir / "tree.tsv").exists()

    @pytest.mark.parametrize("edges, classes, edits, message", [
        (TOY_TREE_EDGES + "R\tE\n", "A\nB\nC\nE\n", "E\tC\n",
         "class 'C' is not a node with no children"),
        (TOY_TREE_EDGES, "A\nB\nC\n", "A\tR\nB\tR\n",
         "node 'D' has no children but is not a class"),
        (TOY_TREE_EDGES, "A\nB\nC\n", "C\tD\nZ\tR\n", "unknown node 'Z'"),
        (TOY_TREE_EDGES, "A\nB\nC\n", "D\tA\n",
         "reparenting 'D' under 'A' creates a cycle"),
        (TOY_TREE_EDGES, "A\nB\nC\n", "R\tD\n", "cannot reparent the root"),
    ], ids=["drops_a_class", "adds_a_leaf", "unknown_node", "cycle", "root"])
    def test_bad_edit_exits_2_naming_file(self, tmp_path, capsys, edges, classes,
                                          edits, message):
        for name, text in (("edges.tsv", edges), ("classes.txt", classes),
                           ("edits.tsv", edits)):
            (tmp_path / name).write_text(text)
        out = tmp_path / "tree.tsv"
        code = run("hierarchy", "build", "--edges", tmp_path / "edges.tsv",
                   "--classes", tmp_path / "classes.txt",
                   "--edits", tmp_path / "edits.tsv", "--out", out)
        assert code == 2
        assert (f"error: --edits {tmp_path / 'edits.tsv'}: {message}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_empty_class_list_exits_2(self, workdir, capsys):
        classes = workdir / "none.txt"
        classes.write_text("# no classes\n\n")
        out = workdir / "tree.tsv"
        code = run("hierarchy", "build", "--edges", workdir / "edges.tsv",
                   "--classes", classes, "--out", out)
        assert code == 2
        assert (f"error: --classes: no class ids in {classes}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_file_exits_2(self, workdir, capsys):
        code = run("hierarchy", "build", "--edges", workdir / "missing.tsv",
                   "--classes", workdir / "classes.txt",
                   "--out", workdir / "x.tsv")
        assert code == 2
        assert "--edges" in capsys.readouterr().err

    def test_tree_writer_bytes_are_pinned(self, tmp_path):
        # A DAG with shortcuts (R->K, R->M, R->h, Q->e) and single-child
        # chains (P->W->U->V), classes out of depth-first order, and edits
        # that leave Q and N with one child each. Plain text, so the digests
        # hold on any numpy or BLAS.
        edges = ("R\tP\nP\tQ\nQ\tK\nK\ta\nK\tb\nR\tK\nR\tM\nM\tc\nM\td\n"
                 "R\tN\nN\tM\nN\te\nQ\te\nM\tg\nR\th\nN\th\nP\tW\nW\tU\n"
                 "U\tV\nV\tf\nV\ti\n")
        (tmp_path / "edges.tsv").write_text(edges)
        (tmp_path / "classes.txt").write_text("h\na\nd\ne\nc\nb\ng\nf\ni\n")
        (tmp_path / "edits.tsv").write_text("e\tM\nh\tK\n")
        inputs = ["--classes", tmp_path / "classes.txt"]
        assert run("hierarchy", "build", "--edges", tmp_path / "edges.tsv",
                   *inputs, "--out", tmp_path / "tree.tsv") == 0
        assert run("hierarchy", "build", "--edges", tmp_path / "edges.tsv",
                   *inputs, "--edits", tmp_path / "edits.tsv",
                   "--out", tmp_path / "edited.tsv") == 0
        assert run("hierarchy", "randomize", "--taxonomy", tmp_path / "tree.tsv",
                   *inputs, "--seed", "3", "--out", tmp_path / "rand.tsv") == 0
        assert run("hierarchy", "build", "--edges", tmp_path / "edited.tsv",
                   *inputs, "--out", tmp_path / "exported.tsv") == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("tree.tsv", "edited.tsv", "rand.tsv",
                                "rand.tsv.permutation.csv", "exported.tsv")}
        assert digests == {
            "tree.tsv": "8db581387f158ac0cee734c10b256e67"
                        "b4d06360c7fc3ee5b5f8539c8115b43f",
            "edited.tsv": "f2e526d91db754da1bf38b8bbc1bf299"
                          "a301c868c267adf0a6141c8b865442c4",
            "rand.tsv": "a56e519bbb773c9e186772185a838810"
                        "cedcdd024c2d15cbf4f651073dbf1187",
            "rand.tsv.permutation.csv": "c318436d3458b486942c4e7b223aa06d"
                                        "70554b033514502f07157b34b592fc3d",
            "exported.tsv": "5ea6df7856d33c3a0bb07b5360590a04"
                            "108cf3d58b26ec1896a3c8b786dc2955",
        }


class TestGenData:
    def test_writes_csv_and_manifest(self, workdir):
        tree, data = gen_tree_and_data(workdir, per_class=4)
        rows = body(data)
        assert rows[0] == "f0,f1,f2,f3,f4,f5,label"
        assert len(rows) == 1 + 12
        manifest = json.loads((workdir / "data.csv.manifest.json").read_text())
        assert manifest["per_class"] == 4
        assert manifest["seed"] == 5
        assert len(manifest["taxonomy_hash"]) == 16

    def test_deterministic_bytes(self, workdir):
        tree, data = gen_tree_and_data(workdir, per_class=4)
        first = data.read_bytes()
        assert run("gen-data", "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--per-class", 4, "--dim", "6",
                   "--step-scale", "1.0", "--noise-scale", "0.6", "--seed", "5",
                   "--out", data) == 0
        assert data.read_bytes() == first

    @pytest.mark.parametrize("flag, value, message", [
        ("--per-class", "x", "invalid literal for int() with base 10: 'x'"),
        ("--per-class", "0", "per_class must be >= 1, got 0"),
        ("--dim", "x", "invalid literal for int() with base 10: 'x'"),
        ("--dim", "0", "dim must be >= 1, got 0"),
        ("--step-scale", "x", "could not convert string to float: 'x'"),
        ("--step-scale", "-1", "step_scale must be finite and >= 0, got -1.0"),
        ("--noise-scale", "x", "could not convert string to float: 'x'"),
        ("--noise-scale", "0", "noise_scale must be finite and > 0, got 0.0"),
        ("--level-decay", "x", "could not convert string to float: 'x'"),
        ("--level-decay", "nan", "level_decay must be finite, got nan"),
        ("--seed", "x", "invalid literal for int() with base 10: 'x'"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--level-decay", "1e200",
         "level_decay 1e+200 overflows the node means at depth 3"),
        ("--step-scale", "1e308", "step_scale 1e+308 overflows the node means"),
        ("--noise-scale", "1e308", "noise_scale 1e+308 overflows the features"),
    ], ids=["per_class_not_int", "per_class_0", "dim_not_int", "dim_0",
            "step_scale_not_float", "step_scale_negative",
            "noise_scale_not_float", "noise_scale_0", "level_decay_not_float",
            "level_decay_nan", "seed_not_int", "seed_negative",
            "level_decay_overflow", "step_scale_overflow",
            "noise_scale_overflow"])
    def test_bad_flag_exits_2_naming_it(self, workdir, capsys, balanced27,
                                        flag, value, message):
        # Three levels deep: a large decay compounds over two steps.
        tree, classes = workdir / "deep.tsv", workdir / "deep.txt"
        tree.write_text("".join(f"{balanced27.parent[n]}\t{n}\n"
                                for n in balanced27.nonroot_bfs))
        classes.write_text("\n".join(balanced27.leaves) + "\n")
        out = workdir / "data.csv"
        code = run("gen-data", "--taxonomy", tree, "--classes", classes, flag,
                   value, "--out", out)
        assert code == 2
        assert f"error: {flag}: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommand:
    def test_writes_all_outputs(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        out = workdir / "run"
        assert run("train", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--loss", "hxe", "--alpha", "0.3",
                   *TINY_TRAIN, "--seed", "1", "--out", out) == 0
        assert (out / "trace.csv").exists()
        assert (out / "selected.csv").exists()
        assert (out / "report.csv").exists()
        assert (out / "histogram.csv").exists()
        ckpts = sorted((out / "checkpoints").glob("step_*.txt"))
        assert len(ckpts) == 10
        selected = body(out / "selected.csv")
        assert selected[0] == "trace_index,step"
        assert len(selected) == 6
        header = (out / "trace.csv").read_text().splitlines()
        assert any(l.startswith("# loss=hxe") for l in header)
        assert any(l.startswith("# taxonomy_hash=") for l in header)

    def test_rerun_is_byte_identical(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        outs = []
        for name in ("runA", "runB"):
            out = workdir / name
            assert run("train", "--data", data, "--taxonomy", tree,
                       "--classes", workdir / "classes.txt", "--loss", "ce",
                       *TINY_TRAIN, "--seed", "2", "--out", out) == 0
            outs.append(out)
        for rel in ("trace.csv", "selected.csv", "report.csv", "histogram.csv"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

    def test_ce_equals_tiny_alpha_hxe(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        reports = {}
        for tag, extra in (("ce", ["--loss", "ce"]),
                           ("hxe", ["--loss", "hxe", "--alpha", "1e-9"])):
            out = workdir / f"run_{tag}"
            assert run("train", "--data", data, "--taxonomy", tree,
                       "--classes", workdir / "classes.txt", *extra,
                       *TINY_TRAIN, "--seed", "3", "--out", out) == 0
            reports[tag] = {
                (cells[0], cells[1]): float(cells[2])
                for cells in (l.split(",") for l in body(out / "report.csv")[1:])
            }
        assert reports["ce"].keys() == reports["hxe"].keys()
        for key, val in reports["ce"].items():
            assert abs(val - reports["hxe"][key]) < 1e-6

    def test_conditional_uniform_weight_baseline(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        out = workdir / "run_yolo"
        assert run("train", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--loss", "hxe", "--alpha", "0",
                   "--head", "conditional", *TINY_TRAIN, "--seed", "1",
                   "--out", out) == 0
        text = (out / "checkpoints" / "step_000060.txt").read_text()
        assert "# head=conditional" in text
        assert "# output_dim=4" in text

    def test_missing_taxonomy_names_flag(self, workdir, capsys):
        code = run("train", "--data", workdir / "nope.csv", "--taxonomy",
                   workdir / "nope.tsv", "--classes", workdir / "classes.txt",
                   "--loss", "ce", "--out", workdir / "x")
        assert code == 2
        assert "--taxonomy" in capsys.readouterr().err

    def test_usage_error_exit_1(self):
        assert run("train", "--loss", "ce") == 1

    @pytest.mark.parametrize("flags, message", [
        (["--lr", "0"], "lr must be > 0"),
        (["--lr", "-1"], "lr must be > 0"),
        (["--discard-before", "-3"], "discard_before must be >= 0"),
        (["--hidden-dim", "0"], "hidden_dim must be >= 1"),
        (["--steps", "ten"], "--steps: invalid literal for int()"),
        (["--head", "bogus"], "--head: head must be one of"),
        (["--eval-split", "bogus"], "--eval-split: eval_split must be one of"),
        (["--split", "0.5,0.3,0.3"],
         "--split: split probabilities must sum to 1: (0.5, 0.3, 0.3)"),
        (["--split", "1.2,-0.1,-0.1"],
         "--split: split probabilities must each lie in (0, 1)"),
        (["--loss", "hxe", "--alpha", "abc"],
         "--alpha: could not convert string to float: 'abc'"),
        (["--loss", "hxe", "--alpha", "0.1,0.2"],
         "--alpha: needs one value, got '0.1,0.2'"),
        (["--loss", "soft", "--beta", ""], "--beta: needs one value, got ''"),
        (["--seed", "x"], "--seed: invalid literal for int()"),
        (["--seed", "1,2"], "--seed: needs one value, got '1,2'"),
        (["--seed", "-1"], "--seed: seeds must be >= 0, got [-1]"),
        (["--split-seed", "-1"], "--split-seed: split_seed must be >= 0, got -1"),
        (["--loss", "hxe", "--alpha", "nan"],
         "error: --alpha: alpha must be finite and >= 0, got nan"),
        (["--loss", "hxe", "--alpha", "-1"],
         "error: --alpha: alpha must be finite and >= 0, got -1.0"),
        (["--loss", "soft", "--beta", "nan"],
         "error: --beta: beta must be finite and >= 0, got nan"),
        (["--loss", "soft", "--beta", "inf"],
         "error: --beta: beta must be finite and >= 0, got inf"),
        (["--lr", "inf"], "error: --lr: lr must be > 0 and finite, got inf"),
        (["--lr", "nan"], "error: --lr: lr must be > 0 and finite, got nan"),
        (["--discard-before", "40"],
         "error: --discard-before: discard_before must leave the 5 checkpoints "
         "that selection needs, but steps=60 and checkpoint_every=6 leave 4, "
         "got 40"),
        (["--steps", "0"], "error: --steps: steps must be >= 1, got 0"),
        (["--batch-size", "0"],
         "error: --batch-size: batch_size must be >= 1, got 0"),
        (["--checkpoint-every", "0"],
         "error: --checkpoint-every: checkpoint_every must be >= 1, got 0"),
        (["--ks", "2,1,2"],
         "error: --ks: ks must not repeat a cutoff, got (2, 1, 2)"),
    ], ids=["lr_0", "lr_negative", "negative_discard", "hidden_dim_0",
            "steps_not_int", "bad_head", "bad_eval_split", "split_sum",
            "split_outside_0_1", "alpha_not_float", "alpha_list", "beta_empty",
            "seed_not_int", "seed_list", "seed_negative", "split_seed_negative",
            "alpha_nan", "alpha_negative", "beta_nan", "beta_inf", "lr_inf",
            "lr_nan", "too_few_checkpoints", "steps_0", "batch_size_0",
            "checkpoint_every_0", "repeated_ks"])
    def test_bad_training_value_exits_2(self, workdir, capsys, flags, message):
        tree, data = gen_tree_and_data(workdir)
        out = workdir / "bad_run"
        code = run("train", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--loss", "ce", *TINY_TRAIN,
                   "--seed", "0", *flags, "--out", out)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_knob_exits_2_before_the_data_is_read(self, workdir, capsys):
        code = run("train", "--data", workdir / "missing.csv", "--taxonomy",
                   workdir / "missing.tsv", "--classes", workdir / "classes.txt",
                   "--loss", "hxe", "--alpha", "-1", "--out", workdir / "x")
        assert code == 2
        assert ("error: --alpha: alpha must be finite and >= 0, got -1.0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("loss, name", [("hxe", "alpha"), ("soft", "beta")])
    def test_missing_knob_exits_2_before_the_data_is_read(self, workdir, capsys,
                                                          loss, name):
        out = workdir / "x"
        code = run("train", "--data", workdir / "missing.csv", "--taxonomy",
                   workdir / "missing.tsv", "--classes", workdir / "classes.txt",
                   "--loss", loss, "--out", out)
        assert code == 2
        assert (f"error: --{name}: loss {loss} needs --{name}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--lr", "inf"], "error: --lr: lr must be > 0 and finite, got inf"),
        (["--steps", "30", "--checkpoint-every", "5", "--discard-before", "20"],
         "error: --discard-before: discard_before must leave the 5 checkpoints "
         "that selection needs, but steps=30 and checkpoint_every=5 leave 2, "
         "got 20"),
    ], ids=["lr_inf", "too_few_checkpoints"])
    def test_bad_schedule_exits_2_before_the_data_is_read(self, workdir, capsys,
                                                          flags, message):
        code = run("train", "--data", workdir / "missing.csv", "--taxonomy",
                   workdir / "missing.tsv", "--classes", workdir / "classes.txt",
                   "--loss", "ce", *flags, "--out", workdir / "x")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (workdir / "x").exists()

    def test_diverged_training_exits_2(self, workdir, capsys):
        tree, data = gen_tree_and_data(workdir)
        out = workdir / "diverged"
        with pytest.warns(RuntimeWarning):
            code = run("train", "--data", data, "--taxonomy", tree, "--classes",
                       workdir / "classes.txt", "--loss", "ce", *TINY_TRAIN,
                       "--lr", "1.7e308", "--out", out)
        assert code == 2
        assert "error: non-finite loss nan at step 2 " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--loss", "ce", "--alpha", "0.5"], "--alpha: loss ce takes no parameter"),
        (["--loss", "ce", "--beta", "3"], "--beta: loss ce takes no parameter"),
        (["--loss", "hxe", "--alpha", "0.5", "--beta", "3"],
         "--beta: loss hxe takes --alpha"),
        (["--loss", "soft", "--alpha", "0.5", "--beta", "3"],
         "--alpha: loss soft takes --beta"),
    ], ids=["ce_alpha", "ce_beta", "hxe_beta", "soft_alpha"])
    def test_parameter_the_loss_does_not_take_exits_2(self, workdir, capsys,
                                                       flags, message):
        tree, data = gen_tree_and_data(workdir)
        out = workdir / "bad_run"
        code = run("train", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", *flags, *TINY_TRAIN, "--out", out)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_hash_mismatch_rejected(self, workdir, capsys):
        tree, data = gen_tree_and_data(workdir)
        # Retarget the same data at a structurally different taxonomy.
        (workdir / "edges2.tsv").write_text("R\tA\nR\tB\nR\tC\n")
        tree2 = workdir / "tree2.tsv"
        assert run("hierarchy", "build", "--edges", workdir / "edges2.tsv",
                   "--classes", workdir / "classes.txt", "--out", tree2) == 0
        code = run("train", "--data", data, "--taxonomy", tree2, "--classes",
                   workdir / "classes.txt", "--loss", "ce", *TINY_TRAIN,
                   "--seed", "0", "--out", workdir / "x")
        assert code == 2
        assert "hash" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_run_and_single_checkpoint(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        out = workdir / "run"
        assert run("train", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--loss", "ce", *TINY_TRAIN,
                   "--seed", "1", "--out", out) == 0
        rep = workdir / "test_report.csv"
        hist = workdir / "test_hist.csv"
        assert run("evaluate", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--split", "0.6,0.2,0.2",
                   "--split-name", "test", "--ks", "1,2", "--run", out,
                   "--out-report", rep, "--out-histogram", hist) == 0
        rows = body(rep)
        assert rows[0] == "metric,k,mean,half_width"
        names = {r.split(",")[0] for r in rows[1:]}
        assert {"top_k_error", "hier_dist_mistake", "mistake_count"} <= names
        ckpt = next((out / "checkpoints").glob("step_*.txt"))
        rep2 = workdir / "single_report.csv"
        assert run("evaluate", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--split", "0.6,0.2,0.2",
                   "--split-name", "val", "--ks", "1", "--checkpoint", ckpt,
                   "--out-report", rep2) == 0
        assert body(rep2)[0] == "metric,k,mean,half_width"

    def test_eval_split_run_matches_evaluate_run(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        out = workdir / "run"
        assert run("train", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--loss", "hxe", "--alpha", "0.5",
                   *TINY_TRAIN, "--eval-split", "test", "--seed", "1",
                   "--out", out) == 0
        rep = workdir / "test_report.csv"
        assert run("evaluate", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--split", "0.6,0.2,0.2",
                   "--split-name", "test", "--ks", "1,2", "--run", out,
                   "--out-report", rep) == 0
        assert body(rep) == body(out / "report.csv")
        # Each report.csv mean is the mean of the selected trace.csv rows.
        trace = list(csv.DictReader(body(out / "trace.csv")))
        picked = [trace[int(line.split(",")[0])]
                  for line in body(out / "selected.csv")[1:]]
        checked = set()
        for metric, k, mean, _ in (line.split(",") for line in
                                   body(out / "report.csv")[1:]):
            column = {"top_k_error": f"top{k}_error",
                      "avg_hier_dist_topk": f"avg_hier_dist_at_{k}"}.get(
                          metric, metric)
            if column in trace[0]:
                checked.add(column)
                assert float(mean) == np.mean([float(row[column])
                                               for row in picked])
        assert checked == set(trace[0]) - {"step", "train_loss", "val_loss"}

    @pytest.mark.parametrize("flags, message", [
        (["--split", "0.7,0.15,0.15"],
         "--split does not match the run's split=0.6,0.2,0.2"),
        (["--split", "0.6,0.2,0.2", "--split-seed", "1"],
         "--split-seed does not match the run's split_seed=0"),
        (["--split", "0.60,0.20,0.200"], None),
        (["--split", "0.6,0.2,0.2", "--split-seed", "one"],
         "--split-seed: invalid literal for int()"),
        (["--split", "0.6,0.2,0.2", "--split-seed", "-1"],
         "--split-seed: split_seed must be >= 0, got -1"),
    ], ids=["other_split", "other_split_seed", "same_numbers",
            "split_seed_not_int", "split_seed_negative"])
    def test_run_split_must_match_training(self, workdir, capsys, flags,
                                           message):
        tree, data = gen_tree_and_data(workdir)
        out = workdir / "run"
        assert run("train", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--loss", "ce", *TINY_TRAIN,
                   "--seed", "1", "--out", out) == 0
        rep = workdir / "rep.csv"
        code = run("evaluate", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", *flags, "--ks", "1,2",
                   "--run", out, "--out-report", rep)
        if message is None:
            assert code == 0
        else:
            assert code == 2
            assert message in capsys.readouterr().err
            assert not rep.exists()

    def test_checkpoint_taxonomy_mismatch(self, workdir, capsys):
        tree, data = gen_tree_and_data(workdir)
        out = workdir / "run"
        assert run("train", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--loss", "ce", *TINY_TRAIN,
                   "--seed", "1", "--out", out) == 0
        (workdir / "edges2.tsv").write_text("R\tA\nR\tB\nR\tC\n")
        tree2 = workdir / "tree2.tsv"
        assert run("hierarchy", "build", "--edges", workdir / "edges2.tsv",
                   "--classes", workdir / "classes.txt", "--out", tree2) == 0
        data2 = workdir / "data2.csv"
        assert run("gen-data", "--taxonomy", tree2, "--classes",
                   workdir / "classes.txt", "--per-class", 60, "--dim", "6",
                   "--step-scale", "1.0", "--noise-scale", "0.6", "--seed", "5",
                   "--out", data2) == 0
        ckpt = next((out / "checkpoints").glob("step_*.txt"))
        code = run("evaluate", "--data", data2, "--taxonomy", tree2,
                   "--classes", workdir / "classes.txt", "--split",
                   "0.6,0.2,0.2", "--ks", "1", "--checkpoint", ckpt,
                   "--out-report", workdir / "r.csv")
        assert code == 2
        assert "hash" in capsys.readouterr().err


def _with_header(lines, **values):
    """``lines`` with the header keys in ``values`` set to new values."""
    out = []
    for line in lines:
        key = line[2:].partition("=")[0] if line.startswith("# ") else None
        out.append(f"# {key}={values[key]}" if key in values else line)
    return out


# A trained toy checkpoint: 7 header lines, then 21 values (6x3 weights and 3
# biases) on lines 8 to 28. Each edit breaks one thing the reader or
# ``evaluate`` checks; the message follows the option and file name.
CHECKPOINT_EDITS = {
    "missing_header_key": (
        lambda L: [l for l in L if not l.startswith("# head=")],
        ": missing header key 'head'"),
    "unknown_head": (
        lambda L: _with_header(L, head="softmax"),
        ": head must be one of ('class', 'conditional'), got 'softmax'"),
    "input_dim_vs_shapes": (
        lambda L: _with_header(L, input_dim=7),
        ": input_dim=7 and output_dim=3 do not fit layer_shapes=6x3"),
    "output_dim_vs_shapes": (
        lambda L: _with_header(L, output_dim=4),
        ": input_dim=6 and output_dim=4 do not fit layer_shapes=6x3"),
    "unchained_layers": (
        lambda L: _with_header(L, layer_shapes="6x5;4x3"),
        ": input_dim=6 and output_dim=3 do not fit layer_shapes=6x5;4x3, "
        "or its layers do not chain"),
    "unparsable_header_value": (
        lambda L: _with_header(L, step="x"),
        ": bad header value: invalid literal for int() with base 10: 'x'"),
    "value_count": (
        lambda L: L[:-1], ": 20 values, but layer_shapes=6x3 needs 21"),
    "extra_value": (
        lambda L: L + ["0.5"], ": 22 values, but layer_shapes=6x3 needs 21"),
    "trailing_blank_line": (
        lambda L: L + [""], " line 29: value '' is not a finite float"),
    "comment_line": (
        lambda L: L[:12] + ["# note"] + L[12:],
        " line 13: value '# note' is not a finite float"),
    "unparsable_value": (
        lambda L: L[:7] + ["0.1.2"] + L[8:],
        " line 8: value '0.1.2' is not a finite float"),
    "nan_value": (
        lambda L: L[:8] + ["nan"] + L[9:],
        " line 9: value 'nan' is not a finite float"),
    "infinite_value": (
        lambda L: L[:27] + ["-inf"],
        " line 28: value '-inf' is not a finite float"),
    "head_vs_taxonomy": (
        lambda L: _with_header(L, head="conditional"),
        ": head=conditional needs output_dim=4 for --taxonomy, got 3"),
    "output_dim_vs_taxonomy": (
        lambda L: _with_header(L, output_dim=2, layer_shapes="6x2")[:21],
        ": head=class needs output_dim=3 for --taxonomy, got 2"),
    "input_dim_vs_data": (
        lambda L: _with_header(L, input_dim=5, layer_shapes="5x3")[:25],
        ": input_dim=5, but --data has 6 features"),
}


@pytest.mark.parametrize("case", list(CHECKPOINT_EDITS))
def test_bad_checkpoint_exits_2_naming_file(workdir, capsys, case):
    edit, message = CHECKPOINT_EDITS[case]
    tree, data = gen_tree_and_data(workdir)
    trained = workdir / "run"
    assert run("train", "--data", data, "--taxonomy", tree, "--classes",
               workdir / "classes.txt", "--loss", "ce", *TINY_TRAIN,
               "--out", trained) == 0
    ckpt = trained / "checkpoints" / "step_000060.txt"
    lines = ckpt.read_text().splitlines()
    assert len(lines) == 28
    ckpt.write_text("\n".join(edit(lines)) + "\n")
    report = workdir / "report.csv"
    code = run("evaluate", "--data", data, "--taxonomy", tree, "--classes",
               workdir / "classes.txt", "--split", "0.6,0.2,0.2", "--ks", "1",
               "--checkpoint", ckpt, "--out-report", report)
    assert code == 2
    assert f"error: --checkpoint {ckpt}{message}" in capsys.readouterr().err
    assert not report.exists()


def test_bad_checkpoint_in_run_names_run_file(workdir, capsys):
    tree, data = gen_tree_and_data(workdir)
    inputs = ["--data", data, "--taxonomy", tree,
              "--classes", workdir / "classes.txt"]
    trained = workdir / "run"
    assert run("train", *inputs, "--loss", "ce", *TINY_TRAIN,
               "--out", trained) == 0
    step = int(body(trained / "selected.csv")[1].split(",")[1])
    ckpt = trained / "checkpoints" / f"step_{step:06d}.txt"
    lines = ckpt.read_text().splitlines()
    lines[8] = "nan"
    ckpt.write_text("\n".join(lines) + "\n")
    code = run("evaluate", *inputs, "--split", "0.6,0.2,0.2", "--ks", "1",
               "--run", trained, "--out-report", workdir / "report.csv")
    assert code == 2
    assert (f"error: --run {ckpt} line 9: value 'nan' is not a finite float"
            in capsys.readouterr().err)


@pytest.mark.parametrize("rows, problem", [
    (["trace_index,step", "4,10", "5"], "line {last}: 1 cells, but the header has 2"),
    (["trace_index,step", "4,x"], "line {last}: 'x' is not an integer"),
    (["trace_index,step"], "line {last}: no rows after the header"),
    (["trace_index,step", "1,18", "2,24", "3,30", "4,36", "2,24"],
     "line {last}: step 24 is already given"),
], ids=["short_row", "step_not_integer", "header_only", "step_twice"])
def test_bad_selected_csv_names_run_file_and_line(workdir, capsys, rows, problem):
    tree, data = gen_tree_and_data(workdir)
    inputs = ["--data", data, "--taxonomy", tree,
              "--classes", workdir / "classes.txt"]
    trained = workdir / "run"
    assert run("train", *inputs, "--loss", "ce", *TINY_TRAIN,
               "--out", trained) == 0
    selected = trained / "selected.csv"
    meta = [l for l in selected.read_text().splitlines() if l.startswith("#")]
    selected.write_text("\n".join(meta + rows) + "\n")
    report = workdir / "report.csv"
    code = run("evaluate", *inputs, "--split", "0.6,0.2,0.2", "--ks", "1",
               "--run", trained, "--out-report", report)
    assert code == 2
    where = problem.format(last=len(meta) + len(rows))
    assert f"error: --run {selected} {where}" in capsys.readouterr().err
    assert not report.exists()


def test_dataset_hash_is_read_from_the_header_alone(workdir, capsys):
    tree, data = gen_tree_and_data(workdir)
    inputs = ["--data", data, "--taxonomy", tree,
              "--classes", workdir / "classes.txt", "--loss", "ce", *TINY_TRAIN]
    lines = data.read_text().splitlines(keepends=True)
    start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    header, rows = lines[:start], lines[start:]
    wrong = [l.split("=")[0] + "=0123456789abcdef\n"
             if l.startswith("# taxonomy_hash=") else l for l in header]
    # A blank line and a comment do not end the header.
    data.write_text("".join(["\n", "# note\n", *wrong, *rows]))
    assert run("train", *inputs, "--out", workdir / "a") == 2
    assert ("dataset taxonomy hash 0123456789abcdef does not match"
            in capsys.readouterr().err)
    # After the first row, the same line is a comment of the body.
    text = "".join([*header, rows[0], *wrong, *rows[1:]])
    data.write_text(text)
    assert run("train", *inputs, "--out", workdir / "b") == 0
    sha = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert f"# data_sha={sha}\n" in (workdir / "b" / "trace.csv").read_text()


def test_run_with_mixed_heads_names_the_checkpoint(workdir, capsys):
    tree, data = gen_tree_and_data(workdir)
    inputs = ["--data", data, "--taxonomy", tree,
              "--classes", workdir / "classes.txt"]
    for head in ("class", "conditional"):
        assert run("train", *inputs, "--loss", "ce", "--head", head, *TINY_TRAIN,
                   "--out", workdir / head) == 0
    step = int(body(workdir / "class" / "selected.csv")[-1].split(",")[1])
    name = f"step_{step:06d}.txt"
    ckpt = workdir / "class" / "checkpoints" / name
    ckpt.write_text((workdir / "conditional" / "checkpoints" / name).read_text())
    code = run("evaluate", *inputs, "--split", "0.6,0.2,0.2", "--ks", "1",
               "--run", workdir / "class", "--out-report", workdir / "report.csv")
    assert code == 2
    assert (f"error: --run {ckpt}: head=conditional, but the run's first "
            "checkpoint has head=class") in capsys.readouterr().err


@pytest.mark.parametrize("value, problem", [
    ("0000000000000000", "taxonomy_hash 0000000000000000 does not match "
     "--taxonomy hash {hash}"),
    (None, "missing header key 'taxonomy_hash'"),
], ids=["other_hash", "no_hash"])
def test_selected_csv_taxonomy_hash_must_match(workdir, capsys, value, problem):
    tree, data = gen_tree_and_data(workdir)
    inputs = ["--data", data, "--taxonomy", tree,
              "--classes", workdir / "classes.txt"]
    trained = workdir / "run"
    assert run("train", *inputs, "--loss", "ce", *TINY_TRAIN,
               "--out", trained) == 0
    selected = trained / "selected.csv"
    lines = selected.read_text().splitlines()
    tax_hash = next(l.split("=")[1] for l in lines
                    if l.startswith("# taxonomy_hash="))
    edited = (_with_header(lines, taxonomy_hash=value) if value else
              [l for l in lines if not l.startswith("# taxonomy_hash=")])
    selected.write_text("\n".join(edited) + "\n")
    report = workdir / "report.csv"
    code = run("evaluate", *inputs, "--split", "0.6,0.2,0.2", "--ks", "1",
               "--run", trained, "--out-report", report)
    assert code == 2
    assert (f"error: --run {selected}: {problem.format(hash=tax_hash)}"
            in capsys.readouterr().err)
    assert not report.exists()


@pytest.mark.parametrize("name", ["--taxonomy", "--classes", "--data", "--run",
                                  "--config", "data"])
def test_input_not_utf8_names_file_and_byte(workdir, capsys, name):
    tree, data = gen_tree_and_data(workdir)
    classes = workdir / "classes.txt"
    inputs = ["--data", data, "--taxonomy", tree, "--classes", classes]
    out = workdir / "out"
    train = ["train", *inputs, "--loss", "ce", *TINY_TRAIN, "--out", out]
    if name == "--run":
        assert run(*train) == 0
        step = int(body(out / "selected.csv")[1].split(",")[1])
        path = out / "checkpoints" / f"step_{step:06d}.txt"
        argv = ["evaluate", *inputs, "--split", "0.6,0.2,0.2", "--ks", "1",
                "--run", out, "--out-report", workdir / "report.csv"]
    elif name in ("--config", "data"):
        config = write_sweep_config(workdir, tree, data)
        path = config if name == "--config" else data
        argv = ["sweep", "--config", config, "--out", out]
    else:
        path = {"--taxonomy": tree, "--classes": classes, "--data": data}[name]
        argv = train
    offset = path.stat().st_size
    with open(path, "ab") as f:
        f.write(b"\xff")
    assert run(*argv) == 2
    assert (f"error: {name} {path}: byte {offset} is not UTF-8"
            in capsys.readouterr().err)


@pytest.mark.parametrize("value", ["nan", "-inf"])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_non_finite_data_cell_names_file_and_line(workdir, capsys, command,
                                                  value):
    tree, data = gen_tree_and_data(workdir, per_class=5)
    lines = data.read_text().splitlines()
    row = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 2
    lines[row] = ",".join([value] + lines[row].split(",")[1:])
    data.write_text("\n".join(lines) + "\n")
    out = workdir / "out"
    if command == "train":
        code = run("train", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--loss", "ce", *TINY_TRAIN,
                   "--out", out)
        source = f"--data {data}"
    else:
        cfg = write_sweep_config(workdir, tree, data)
        code = run("sweep", "--config", cfg, "--out", out)
        source = f"data {data}"
    assert code == 2
    assert (f"error: {source} line {row + 1}: feature cell is not a finite "
            "number") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_short_data_row_names_file_and_line(workdir, capsys, command):
    # The same form as --run, --histogram and --tables give a short row.
    tree, data = gen_tree_and_data(workdir, per_class=5)
    lines = data.read_text().splitlines()
    row = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 3
    lines[row] = lines[row].split(",", 1)[1]
    data.write_text("\n".join(lines) + "\n")
    out = workdir / "out"
    if command == "train":
        code = run("train", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--loss", "ce", *TINY_TRAIN,
                   "--out", out)
        source = f"--data {data}"
    else:
        code = run("sweep", "--config", write_sweep_config(workdir, tree, data),
                   "--out", out)
        source = f"data {data}"
    assert code == 2
    assert (f"error: {source} line {row + 1}: 6 cells, but the header has 7"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_data_without_feature_column_exits_2(workdir, capsys, command):
    tree, data = gen_tree_and_data(workdir, per_class=5)
    data.write_text("label\n" + "".join(f"{c}\n" for c in TOY_TREE_LEAVES * 5))
    out = workdir / "out"
    if command == "train":
        code = run("train", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--loss", "ce", *TINY_TRAIN,
                   "--out", out)
        source = f"--data {data}"
    else:
        code = run("sweep", "--config", write_sweep_config(workdir, tree, data),
                   "--out", out)
        source = f"data {data}"
    assert code == 2
    assert (f"error: {source} line 1: header 'label' has no feature column"
            in capsys.readouterr().err)
    assert not out.exists()


def write_sweep_config(workdir, tree, data, **overrides) -> Path:
    base = {
        "loss": "hxe",
        "grid": "0.1,0.9",
        "head": "class",
        "data": data.name,
        "taxonomy": tree.name,
        "classes": "classes.txt",
        "split": "0.6,0.2,0.2",
        "split_seed": "0",
        "seeds": "0",
        "steps": "60",
        "batch_size": "16",
        "checkpoint_every": "6",
        "discard_before": "12",
        "lr": "0.05",
        "ks": "1,2",
        "workers": "1",
    }
    base.update(overrides)
    path = workdir / "sweep.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


class TestSweepCommand:
    def test_grid_writes_tables_and_points(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data)
        out = workdir / "sweep"
        assert run("sweep", "--config", cfg, "--out", out) == 0
        table = body(out / "tradeoff.csv")
        assert len(table) == 3  # header + 2 grid points
        header = table[0].split(",")
        assert header[:5] == ["method", "head", "parameter", "taxonomy", "seed"]
        assert "top1_error" in header and "hier_dist_mistake" in header
        params = [r.split(",")[2] for r in table[1:]]
        assert params == ["0.1", "0.9"]
        assert (out / "points" / "hxe_0.1_true_seed0" / "trace.csv").exists()
        assert (out / "points" / "hxe_0.1_true_seed0" / "histogram.csv").exists()
        assert (out / "tradeoff_mean.csv").exists()

    def test_default_alpha_grid_has_nine_rows(self, workdir):
        tree, data = gen_tree_and_data(workdir, per_class=30)
        cfg = write_sweep_config(workdir, tree, data)
        text = cfg.read_text().replace("grid = 0.1,0.9\n", "")
        cfg.write_text(text)
        out = workdir / "sweep9"
        assert run("sweep", "--config", cfg, "--out", out) == 0
        rows = body(out / "tradeoff.csv")[1:]
        params = [float(r.split(",")[2]) for r in rows]
        assert params == [round(0.1 * i, 1) for i in range(1, 10)]

    def test_single_point_matches_train_command(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data, grid="0.3", seeds="2")
        out = workdir / "sweep1"
        assert run("sweep", "--config", cfg, "--out", out) == 0
        train_out = workdir / "train1"
        assert run("train", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--loss", "hxe", "--alpha", "0.3",
                   *TINY_TRAIN, "--seed", "2", "--eval-split", "val",
                   "--out", train_out) == 0
        point = out / "points" / "hxe_0.3_true_seed2"
        for name in ("trace.csv", "selected.csv", "histogram.csv"):
            assert body(train_out / name) == body(point / name), name
        report = {(c[0], c[1]): (c[2], c[3]) for c in
                  (l.split(",") for l in body(train_out / "report.csv")[1:])}
        table = body(out / "tradeoff.csv")
        header = table[0].split(",")
        cells = table[1].split(",")
        row = dict(zip(header, cells))
        assert row["parameter"] == "0.3"
        assert (report[("top_k_error", "1")][0] == row["top1_error"])
        assert (report[("hier_dist_mistake", "")][0] == row["hier_dist_mistake"])

    def test_hidden_dim_is_in_the_headers(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data, grid="0.3",
                                 hidden_dim="8")
        out = workdir / "sweep_mlp"
        assert run("sweep", "--config", cfg, "--out", out) == 0
        for rel in ("tradeoff.csv", "tradeoff_mean.csv",
                    "points/hxe_0.3_true_seed0/trace.csv"):
            assert "# hidden_dim=8" in (out / rel).read_text().splitlines()

    def test_paired_randomized_sweep(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data, grid="0.5",
                                 taxonomy_source="both:11")
        out = workdir / "sweep_both"
        assert run("sweep", "--config", cfg, "--out", out) == 0
        rows = [r.split(",") for r in body(out / "tradeoff.csv")[1:]]
        taxonomies = {r[3] for r in rows}
        assert taxonomies == {"true", "randomized"}

    def test_randomized_only_sweep(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data, grid="0.5",
                                 taxonomy_source="randomized:11")
        out = workdir / "sweep_randomized"
        assert run("sweep", "--config", cfg, "--out", out) == 0
        for name in ("tradeoff.csv", "tradeoff_mean.csv"):
            assert [r.split(",")[3] for r in body(out / name)[1:]] == ["randomized"]
        assert [p.name for p in (out / "points").iterdir()] == [
            "hxe_0.5_randomized_seed0"]
        # The point trained on the tree that `hierarchy randomize` writes.
        rand = workdir / "rand.tsv"
        assert run("hierarchy", "randomize", "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--seed", "11", "--out", rand) == 0
        rand_hash = next(l.split("=")[1] for l in rand.read_text().splitlines()
                         if l.startswith("# taxonomy_hash="))
        trace = (out / "points" / "hxe_0.5_randomized_seed0" / "trace.csv")
        assert f"# point_taxonomy_hash={rand_hash}" in trace.read_text()

    def test_failed_point_recorded_exit_3(self, workdir, capsys):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data, loss="soft",
                                 grid="4.0,-1.0,inf")
        out = workdir / "sweep_fail"
        assert run("sweep", "--config", cfg, "--out", out) == 3
        failures = list(csv.reader(body(out / "failures.csv")))
        assert failures[1:] == [
            ["soft_-1.0_true_seed0",
             "ValueError: beta must be finite and >= 0, got -1.0"],
            ["soft_inf_true_seed0",
             "ValueError: beta must be finite and >= 0, got inf"]]
        ok_rows = body(out / "tradeoff.csv")[1:]
        assert len(ok_rows) == 1

    def test_clean_rerun_removes_stale_failures(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        out = workdir / "sweep_again"
        cfg = write_sweep_config(workdir, tree, data, grid="-1,0.5")
        assert run("sweep", "--config", cfg, "--out", out) == 3
        assert (out / "failures.csv").exists()
        cfg = write_sweep_config(workdir, tree, data, grid="0.5")
        assert run("sweep", "--config", cfg, "--out", out) == 0
        assert not (out / "failures.csv").exists()

    def test_failed_rerun_removes_stale_tables(self, workdir):
        # A table the sweep has no rows for is removed like failures.csv.
        tree, data = gen_tree_and_data(workdir)
        out = workdir / "sweep_again"
        cfg = write_sweep_config(workdir, tree, data, grid="0.5")
        assert run("sweep", "--config", cfg, "--out", out) == 0
        cfg = write_sweep_config(workdir, tree, data, grid="-1")
        assert run("sweep", "--config", cfg, "--out", out) == 3
        assert sorted(p.name for p in out.iterdir()) == ["failures.csv",
                                                         "points"]
        assert "# grid=-1.0" in (out / "failures.csv").read_text()

    def test_config_line_without_equals_exits_2(self, workdir, capsys):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data)
        first, rest = cfg.read_text().split("\n", 1)
        cfg.write_text(f"{first}\nsteps 60\n{rest}")
        out = workdir / "sweep_bad"
        assert run("sweep", "--config", cfg, "--out", out) == 2
        assert (f"error: --config {cfg} line 2: expected 'key = value'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_config_key(self, workdir, capsys):
        bad = workdir / "bad.cfg"
        bad.write_text("loss = ce\n")
        assert run("sweep", "--config", bad, "--out", workdir / "x") == 2

    def test_failures_csv_quotes_error_text(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data, grid="-0.1,-0.9")
        out = workdir / "sweep_negative"
        assert run("sweep", "--config", cfg, "--out", out) == 3
        rows = list(csv.reader(body(out / "failures.csv")))
        assert rows[0] == ["point", "error"]
        assert [r[0] for r in rows[1:]] == ["hxe_-0.1_true_seed0",
                                            "hxe_-0.9_true_seed0"]
        for row in rows:
            assert len(row) == 2
        assert rows[1][1] == ("ValueError: alpha must be finite and >= 0, "
                              "got -0.1")

    @pytest.mark.parametrize("overrides, message", [
        ({"step": "10"}, "line 17: unknown key 'step'"),
        ({"head": "bogus"}, "head must be one of"),
        ({"hidden_dim": "0"}, "hidden_dim must be >= 1"),
        ({"loss": "soft", "grid": "4.0", "head": "conditional"},
         "loss = soft requires head = class"),
        ({"lr": "0"}, "lr must be > 0"),
        ({"discard_before": "-1"}, "discard_before must be >= 0"),
        ({"steps": "ten"}, "sweep.cfg line 10: steps: invalid literal for int()"),
        ({"split": "0.5,0.5"}, "sweep.cfg line 7: split: needs three "
                               "comma-separated values, got '0.5,0.5'"),
        ({"split": "0.5,0.3,0.3"},
         "split probabilities must sum to 1: (0.5, 0.3, 0.3)"),
        ({"split": "1.2,-0.1,-0.1"},
         "split probabilities must each lie in (0, 1)"),
        ({"lr": "fast"}, "sweep.cfg line 14: lr: could not convert"),
        ({"loss": "ce"}, "loss ce takes no grid, got [0.1, 0.9]"),
        ({"seeds": ""}, "seeds must list at least one seed, got []"),
        ({"seeds": "0,-1"}, "seeds must be >= 0, got [0, -1]"),
        ({"split_seed": "-1"}, "split_seed must be >= 0, got -1"),
        ({"taxonomy_source": "both:abc"}, "taxonomy_source must be 'true', "
                                          "'randomized:<seed>' or 'both:<seed>'"),
        ({"workers": "-1"}, "workers must be >= 0, got -1"),
        ({"grid": ""}, "grid must list at least one value, got []"),
        ({"lr": "inf"}, "lr must be > 0 and finite, got inf"),
        ({"discard_before": "40"},
         "discard_before must leave the 5 checkpoints that selection needs, "
         "but steps=60 and checkpoint_every=6 leave 4, got 40"),
        ({"grid": "0.1,0.10", "seeds": "0"},
         "grid must not repeat a value, got [0.1, 0.1]"),
        ({"seeds": "1,0,01"}, "seeds must not repeat a seed, got [1, 0, 1]"),
        ({"ks": "5,5"}, "ks must not repeat a cutoff, got (5, 5)"),
    ], ids=["unknown_key", "bad_head", "hidden_dim_0", "soft_conditional",
            "lr_0", "negative_discard", "steps_not_int", "split_two_values",
            "split_sum", "split_outside_0_1",
            "lr_not_float", "ce_with_grid", "no_seeds", "negative_seed",
            "negative_split_seed", "seed_not_integer", "negative_workers",
            "empty_grid", "lr_inf", "too_few_checkpoints", "repeated_grid_value",
            "repeated_seed", "repeated_ks"])
    def test_bad_config_rejected_before_any_point(self, workdir, capsys,
                                                  overrides, message):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data, **overrides)
        out = workdir / "sweep_bad"
        assert run("sweep", "--config", cfg, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_workers_flag_exits_2(self, workdir, capsys):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data)
        out = workdir / "sweep_bad"
        assert run("sweep", "--config", cfg, "--workers", "two",
                   "--out", out) == 2
        assert ("--workers: invalid literal for int()"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_negative_workers_flag_exits_2(self, workdir, capsys):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data)
        out = workdir / "sweep_bad"
        assert run("sweep", "--config", cfg, "--workers", "-1",
                   "--out", out) == 2
        assert ("error: --workers: workers must be >= 0, got -1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_split_rejected_when_the_config_is_read(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data, split="0.5,0.3,0.3")
        with pytest.raises(SettingError, match="must sum to 1") as caught:
            parse_sweep_config(cfg.read_text(), workdir)
        assert caught.value.key == "split"

    def test_repeated_key_rejected(self, workdir, capsys):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data)
        cfg.write_text(cfg.read_text() + "steps = 70\n")
        out = workdir / "sweep_twice"
        assert run("sweep", "--config", cfg, "--out", out) == 2
        assert ("sweep.cfg line 17: key 'steps' is already set on line 10"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_programming_error_in_a_point_propagates(self, workdir,
                                                      monkeypatch):
        # Only a point's bad inputs or numerics become a failures.csv row.
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data, workers="1")

        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(sweep, "run_point", broken)
        out = workdir / "sweep_bug"
        with pytest.raises(TypeError, match="bug"):
            run("sweep", "--config", cfg, "--out", out)
        assert not (out / "failures.csv").exists()

    def test_readme_config_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        intro = "A sweep config is a `key = value` file"
        block = readme.split(intro, 1)[1].split("```\n", 2)[1]
        config = parse_sweep_config(block, "base")
        assert config.loss == "hxe" and config.grid == [0.1, 0.5, 0.9]
        assert config.data == str(Path("base") / "data.csv")
        assert config.hidden_dim == 64 and config.workers == 0
        assert config.seeds == [0, 1, 2, 3, 4] and config.ks == (1, 5, 20)


@pytest.mark.parametrize("ks, message", [
    ("", "needs cutoffs from 1 to the 3 classes, got []"),
    ("1,x", "needs comma-separated integers, got '1,x'"),
    ("0,1", "needs cutoffs from 1 to the 3 classes, got [0, 1]"),
    ("1,4", "needs cutoffs from 1 to the 3 classes, got [1, 4]"),
], ids=["empty", "not_integer", "zero", "above_classes"])
@pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
def test_bad_ks_exits_2_before_training(workdir, capsys, command, ks, message):
    tree, data = gen_tree_and_data(workdir)
    inputs = ["--data", data, "--taxonomy", tree,
              "--classes", workdir / "classes.txt"]
    out = workdir / "out"
    if command == "sweep":
        cfg = write_sweep_config(workdir, tree, data, ks=ks)
        code = run("sweep", "--config", cfg, "--out", out)
        name = "ks: "
    elif command == "train":
        code = run("train", *inputs, "--loss", "ce", *TINY_TRAIN, "--ks", ks,
                   "--out", out)
        name = "--ks: "
    else:
        trained = workdir / "run"
        assert run("train", *inputs, "--loss", "ce", *TINY_TRAIN,
                   "--out", trained) == 0
        capsys.readouterr()
        code = run("evaluate", *inputs, "--split", "0.6,0.2,0.2", "--ks", ks,
                   "--run", trained, "--out-report", out / "report.csv")
        name = "--ks: "
    assert code == 2
    err = capsys.readouterr().err
    assert name in err and message in err
    assert not out.exists()


class TestReportCommand:
    def test_histogram_frequencies(self, workdir):
        src = workdir / "h.csv"
        src.write_text("height,count\n1,1\n2,1\n")
        out = workdir / "freq.csv"
        assert run("report", "--histogram", src, "--out", out) == 0
        assert body(out) == ["height,frequency", "1,0.5", "2,0.5"]

    @pytest.mark.parametrize("rows, line, problem", [
        ("height,count\n1,3\n2\n", 4, "1 cells, but the header has 2"),
        ("height,count\n1,3\n2,x\n", 4, "'x' is not an integer"),
        ("height,count\nx,3\n-1,1\n", 3, "'x' is not an integer"),
        ("height,count\n1,3\n-1,1\n", 4,
         "height and count must be >= 0, got -1,1"),
        ("height,count\n1,-3\n", 3, "height and count must be >= 0, got 1,-3"),
        ("height,count\n1,3\n2,1\n1,2\n", 5, "height 1 is already given"),
    ], ids=["row_without_count", "count_not_integer", "height_not_integer",
            "negative_height", "negative_count", "repeated_height"])
    def test_bad_histogram_row_exits_2(self, workdir, capsys, rows, line,
                                       problem):
        src = workdir / "h.csv"
        src.write_text("# taxonomy_hash=abc\n" + rows)
        out = workdir / "freq.csv"
        assert run("report", "--histogram", src, "--out", out) == 2
        assert (f"error: --histogram {src} line {line}: {problem}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_short_table_row_exits_2(self, workdir, capsys):
        table = workdir / "t.csv"
        table.write_text("method,parameter,top1_error\nce,,0.5\nce,0.5\n")
        out = workdir / "m.csv"
        assert run("report", "--tables", table, "--out", out) == 2
        assert (f"error: --tables {table} line 3: 2 cells, but the header has 3"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("cells, column, value", [
        ("nan,0.01", "top1_error", "nan"),
        ("abc,0.01", "top1_error", "abc"),
        ("0.5,inf", "top1_error_hw", "inf"),
        ("0.5,", "top1_error_hw", ""),
    ], ids=["metric_nan", "metric_not_a_number", "half_width_inf",
            "half_width_empty"])
    def test_non_finite_table_cell_exits_2(self, workdir, capsys, cells,
                                           column, value):
        table = workdir / "t.csv"
        table.write_text("method,parameter,seed,top1_error,top1_error_hw\n"
                         f"ce,,0,0.5,0.01\nce,,1,{cells}\n")
        out = workdir / "m.csv"
        assert run("report", "--tables", table, "--out", out) == 2
        assert (f"error: --tables {table} line 3: column {column} holds "
                f"{value!r}, not a finite number" in capsys.readouterr().err)
        assert not out.exists()

    def test_tables_merge_long_format(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data, grid="0.2")
        sweep_out = workdir / "sw"
        assert run("sweep", "--config", cfg, "--out", sweep_out) == 0
        merged = workdir / "merged.csv"
        assert run("report", "--tables", sweep_out / "tradeoff.csv",
                   "--out", merged) == 0
        rows = body(merged)
        assert rows[0].startswith("source,method,head,parameter,taxonomy,seed")
        assert all(r.split(",")[0] == "tradeoff" for r in rows[1:])
        metrics = {r.split(",")[6] for r in rows[1:]}
        assert "top1_error" in metrics

    def test_two_tables_concatenate(self, workdir):
        t1 = workdir / "t1.csv"
        t2 = workdir / "t2.csv"
        for t in (t1, t2):
            t.write_text("method,parameter,seed,top1_error,top1_error_hw\n"
                         "ce,,0,0.5,0.01\n")
        out = workdir / "merged.csv"
        assert run("report", "--tables", t1, t2, "--out", out) == 0
        rows = body(out)
        assert len(rows) == 3
        assert {r.split(",")[0] for r in rows[1:]} == {"t1", "t2"}

    def test_repeated_stem_rejected(self, workdir, capsys):
        tables = [workdir / d / "tradeoff.csv" for d in ("a", "b")]
        for t in tables:
            t.parent.mkdir()
            t.write_text("method,parameter,seed,top1_error\nce,,0,0.5\n")
        out = workdir / "merged.csv"
        assert run("report", "--tables", *tables, "--out", out) == 2
        assert (f"error: --tables {tables[1]}: same file stem 'tradeoff' as "
                f"--tables {tables[0]}" in capsys.readouterr().err)
        assert not out.exists()

    def test_column_mismatch_rejected(self, workdir, capsys):
        t1 = workdir / "t1.csv"
        t2 = workdir / "t2.csv"
        t1.write_text("method,parameter,top1_error\nce,,0.5\n")
        t2.write_text("method,parameter,other\nce,,0.5\n")
        assert run("report", "--tables", t1, t2, "--out", workdir / "m.csv") == 2
        assert "mismatch" in capsys.readouterr().err


class TestEndToEndDeterminism:
    def test_sweep_rerun_byte_identical(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data, grid="0.4", workers="2")
        outs = []
        for name in ("swA", "swB"):
            out = workdir / name
            assert run("sweep", "--config", cfg, "--out", out) == 0
            outs.append(out)
        for rel in ("tradeoff.csv", "tradeoff_mean.csv",
                    "points/hxe_0.4_true_seed0/trace.csv",
                    "points/hxe_0.4_true_seed0/histogram.csv",
                    "points/hxe_0.4_true_seed0/selected.csv"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

    def test_sweep_files_do_not_depend_on_workers(self, workdir):
        tree, data = gen_tree_and_data(workdir)
        outs = []
        for workers in ("1", "2"):
            cfg = write_sweep_config(workdir, tree, data, taxonomy_source="both:3",
                                     workers=workers)
            out = workdir / f"sw{workers}"
            assert run("sweep", "--config", cfg, "--out", out) == 0
            outs.append(out)
        files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
                 for out in outs]
        assert files[0] == files[1]
        assert len(files[0]) == 2 + 4 * 3  # two tables, three files a point
        for rel in files[0]:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

    @pytest.mark.parametrize("cpus, pools", [({0}, []), ({0, 1}, [2]),
                                             ({0, 1, 2, 3}, [2])],
                             ids=["one_cpu", "two_cpus", "more_cpus_than_points"])
    def test_pool_size_follows_cpu_affinity(self, workdir, monkeypatch, cpus,
                                            pools):
        # workers = 0 asks for one worker per CPU the process may run on, at
        # most one per point (two here); a pool that would have one worker
        # is not made.
        tree, data = gen_tree_and_data(workdir)
        cfg = write_sweep_config(workdir, tree, data, workers="0")
        made = []

        class SerialPool:
            def __init__(self, workers):
                made.append(workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, jobs):
                return [fn(*job) for job in jobs]

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: SimpleNamespace(Pool=SerialPool))
        assert run("sweep", "--config", cfg, "--out", workdir / "sw") == 0
        assert made == pools
        assert len(body(workdir / "sw" / "tradeoff.csv")) == 3

    def test_infeasible_selection_schedule_exits_2(self, workdir, capsys):
        tree, data = gen_tree_and_data(workdir)
        code = run("train", "--data", data, "--taxonomy", tree, "--classes",
                   workdir / "classes.txt", "--loss", "ce", "--steps", "20",
                   "--batch-size", "8", "--checkpoint-every", "10",
                   "--discard-before", "0", "--lr", "0.01", "--ks", "1",
                   "--split", "0.6,0.2,0.2", "--seed", "0",
                   "--out", workdir / "short")
        assert code == 2
        assert "5 checkpoints" in capsys.readouterr().err


def test_train_and_evaluate_skip_unused_imports(workdir):
    # Each of these costs a fresh process milliseconds on first import:
    # numpy.ma (np.unique on floats), numpy.polynomial, and multiprocessing,
    # which only the sweep's pool needs.
    tree, data = gen_tree_and_data(workdir)
    inputs = ["--data", data, "--taxonomy", tree, "--classes",
              workdir / "classes.txt"]
    commands = [
        ["train", *inputs, "--loss", "hxe", "--alpha", "0.5", *TINY_TRAIN,
         "--seed", "1", "--out", workdir / "run"],
        ["evaluate", *inputs, "--split", "0.6,0.2,0.2", "--split-name", "test",
         "--ks", "1,2", "--run", workdir / "run", "--out-report",
         workdir / "report.csv"],
    ]
    script = "\n".join([
        "import sys",
        "from hiercls.cli import main",
        *(f"assert main({[str(a) for a in argv]!r}) == 0" for argv in commands),
        "print(*sorted({'numpy.ma', 'numpy.polynomial', 'multiprocessing'}"
        " & set(sys.modules)))"])
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=path),
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
