"""Command-line orchestration.

Subcommands: ``hierarchy`` (build / randomize), ``gen-data``,
``train``, ``evaluate``, ``sweep``, ``report``. Outputs are UTF-8 CSV with
``#``-prefixed metadata headers carrying the run configuration and the
taxonomy hash, never paths or timestamps, so identical flags reproduce
byte-identical files.

Exit codes: 0 success, 1 usage error, 2 bad input or diverged training, 3
partial sweep failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .data import DataError, dataset_to_csv, synth_hierarchical
from .fileio import fmt, meta_header, read_rows, write_text
from .losses import check_knob
from .model import (LOSS_PARAMETERS, SettingError, TrainingDivergedError,
                    build_objective, checkpoint_from_text, checkpoint_to_text,
                    evaluate_model, output_dim_for)
from .sweep import (MEAN_ID_COLUMNS, POINT_ID_COLUMNS, RUN_SETTINGS,
                    SPLIT_NAMES, SweepConfig, average_reports, checkpoint_path,
                    load_inputs, load_tax, parse_sweep_config, read_classes,
                    read_histogram, read_input, read_selected, read_setting,
                    run_meta, run_point, run_sweep, setting_text, write_csv,
                    write_histogram_csv, write_report_csv, write_run_files)
from .taxonomy import (HierarchyError, apply_edits, leaf_permutation,
                       load_taxonomy, parse_pairs, randomize_leaves)
# Not called here: perfbench/tracer.py patches these lookup sites.
from .data import dataset_from_csv, split  # noqa: F401
from .model import select_checkpoints, train  # noqa: F401
from .taxonomy import prune_to_tree  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# hierarchy
# ---------------------------------------------------------------------------


def _export_with_header(tax, extra_meta=None) -> str:
    meta = dict(extra_meta or {}, format="hiercls-taxonomy-v1",
                taxonomy_hash=tax.hash_hex(), num_nodes=tax.num_nodes,
                num_leaves=tax.num_leaves, tree_height=tax.tree_height)
    return meta_header(meta) + tax.export_edges()


def cmd_hierarchy(args) -> int:
    if args.action == "build":
        tax = load_taxonomy(read_input(args.edges, "--edges"),
                            read_classes(args.classes, "--classes"),
                            f"--edges {args.edges}", f"--classes {args.classes}")
        if args.edits:
            edits = parse_pairs(read_input(args.edits, "--edits"),
                                "node<TAB>new_parent", "--edits")
            try:
                tax = apply_edits(tax, edits)
            except HierarchyError as exc:
                raise type(exc)(f"--edits {args.edits}: {exc}") from None
        write_text(args.out, _export_with_header(tax))
    else:  # randomize
        seed = read_setting("seed", args.seed, "--seed")
        if seed < 0:
            raise ValueError(f"--seed: seed must be >= 0, got {seed}")
        tax = load_tax(args.taxonomy, args.classes)
        randomized = randomize_leaves(tax, seed)
        write_text(args.out, _export_with_header(
            randomized, {"randomize_seed": seed,
                         "source_taxonomy_hash": tax.hash_hex()}))
        perm = leaf_permutation(tax, seed)
        lines = ["slot,label_before,label_after"]
        lines += [f"{i},{a},{b}" for i, (a, b) in enumerate(perm)]
        sidecar = args.permutation_out or (args.out + ".permutation.csv")
        write_csv(sidecar, {"randomize_seed": seed,
                            "source_taxonomy_hash": tax.hash_hex()}, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    values = {key: read_setting(key, getattr(args, key), _flag(key)) for key in (
        "per_class", "dim", "step_scale", "noise_scale", "level_decay", "seed")}
    tax = load_tax(args.taxonomy, args.classes)
    with _flag_named():
        ds = synth_hierarchical(tax, **values)
    # Floats in round-trip form; integers stay numbers in the JSON manifest.
    params = {key: fmt(value) if isinstance(value, float) else value
              for key, value in values.items()}
    params["taxonomy_hash"] = tax.hash_hex()
    write_text(args.out, meta_header(params) + dataset_to_csv(ds))
    manifest = dict(params, format="hiercls-dataset-manifest-v1",
                    num_examples=ds.n)
    write_text(args.out + ".manifest.json",
               json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train / evaluate
# ---------------------------------------------------------------------------


# The run settings ``evaluate`` takes; ``train`` takes all of RUN_SETTINGS.
_EVALUATE_SETTINGS = ("split", "split_seed", "ks")


def _flag(key: str) -> str:
    """The flag of setting ``key``; ``train --seed`` gives the ``seeds``."""
    return "--seed" if key == "seeds" else "--" + key.replace("_", "-")


@contextmanager
def _flag_named():
    """Re-raise a ``SettingError`` naming the flag of its key."""
    try:
        yield
    except SettingError as exc:
        raise ValueError(f"{_flag(exc.key)}: {exc}") from None


def _config(args, loss: str, keys, **values) -> SweepConfig:
    """The run config of the input flags, the ``keys`` setting flags that
    were given and ``values``; a bad value's error names its flag."""
    values.update((key, read_setting(key, getattr(args, key), _flag(key)))
                  for key in keys if getattr(args, key) is not None)
    with _flag_named():
        return SweepConfig(loss, args.data, args.taxonomy, args.classes, **values)


def _one_value(key: str, flag: str, text: str):
    """The one value of the list setting ``key`` (``grid`` or ``seeds``)
    that ``flag`` gives as ``text``."""
    values = read_setting(key, text, flag)
    if len(values) != 1:
        raise ValueError(f"{flag}: needs one value, got {text!r}")
    return values[0]


def cmd_train(args) -> int:
    name = LOSS_PARAMETERS[args.loss]
    for other in ("alpha", "beta"):
        if other != name and getattr(args, other) is not None:
            raise ValueError(f"--{other}: loss {args.loss} takes "
                             + (f"--{name}" if name else "no parameter"))
    # A one-point sweep: its grid value and seed read as the sweep's would.
    param = getattr(args, name) if name else None
    if name:
        if param is None:
            raise ValueError(f"--{name}: loss {args.loss} needs --{name}")
        param = _one_value("grid", f"--{name}", param)
        check_knob(name, param, f"--{name}: ")
    seed = _one_value("seeds", "--seed", args.seed)
    cfg = _config(args, args.loss, RUN_SETTINGS, grid=[param], seeds=[seed])
    tax, data_text, parts = load_inputs(cfg)
    model, records, selected = run_point(tax, parts, cfg, param, seed)

    meta = dict(run_meta(cfg, tax, data_text), seed=seed)
    if name:
        meta[name] = fmt(param)
    out = Path(args.out)
    write_run_files(out, meta, records, selected)
    for rec in records:
        write_text(checkpoint_path(out, rec.step),
                   checkpoint_to_text(replace(model, params=rec.params),
                                      rec.step, tax.hash_hex()))
    write_report_csv(out / "report.csv", meta,
                     average_reports([records[i].report for i in selected]))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    # Checkpoints are ranked by the scores of the ce objective of their head.
    cfg = _config(args, "ce", _EVALUATE_SETTINGS)
    tax, data_text, parts = load_inputs(cfg)
    meta = dict(run_meta(cfg, tax, data_text, _EVALUATE_SETTINGS),
                split_name=args.split_name)
    paths = [args.checkpoint]
    if args.run:
        recorded, steps = read_selected(args.run, "--run")
        # Scoring on another split could score rows the run trained on.
        for key, value in recorded.items():
            if value != getattr(cfg, key):
                raise DataError(f"{_flag(key)} does not match the run's "
                                f"{key}={setting_text(value)}")
        paths = [checkpoint_path(args.run, s) for s in steps]
        meta["checkpoints"] = ",".join(str(s) for s in steps)

    eval_ds = parts[SPLIT_NAMES.index(args.split_name)]
    name = "--run" if args.run else "--checkpoint"
    models = []
    for path in paths:
        source = f"{name} {path}"
        model, _, tax_hash = checkpoint_from_text(read_input(path, name), source)
        if tax_hash != tax.hash_hex():
            raise DataError(
                f"{source}: checkpoint taxonomy hash {tax_hash} does not match "
                f"--taxonomy hash {tax.hash_hex()}"
            )
        width = output_dim_for(tax, model.head)
        if model.output_dim != width:
            raise DataError(f"{source}: head={model.head} needs output_dim={width}"
                            f" for --taxonomy, got {model.output_dim}")
        if model.input_dim != eval_ds.feature_dim:
            raise DataError(f"{source}: input_dim={model.input_dim}, but --data "
                            f"has {eval_ds.feature_dim} features")
        if models and model.head != models[0].head:
            raise DataError(f"{source}: head={model.head}, but the run's first "
                            f"checkpoint has head={models[0].head}")
        models.append(model)
    obj = build_objective(tax, cfg.loss, None, models[0].head)
    reports = [evaluate_model(tax, model, eval_ds, obj, ks=cfg.ks)
               for model in models]
    write_report_csv(args.out_report, meta, average_reports(reports))
    if args.out_histogram:
        write_histogram_csv(args.out_histogram, meta, reports)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep / report
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    config = parse_sweep_config(read_input(args.config, "--config"),
                                Path(args.config).parent, f"--config {args.config}")
    if args.workers is not None:
        with _flag_named():
            config = replace(config, workers=read_setting("workers", args.workers,
                                                          "--workers"))
    failed = run_sweep(config, args.out)
    if failed:
        print(f"sweep finished with {failed} failed point(s); see failures.csv",
              file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_report(args) -> int:
    if args.histogram:
        meta, counts = read_histogram(args.histogram, "--histogram")
        total = sum(c for _, c in counts)
        lines = ["height,frequency"]
        lines += [f"{h},{fmt(c / total if total else 0.0)}" for h, c in counts]
        write_csv(args.out, dict(meta, normalization="frequency"), lines)
        return EXIT_OK

    tables, hashes = [], set()
    for path in args.tables:
        source, stem = f"--tables {path}", Path(path).stem
        for other, (seen, _) in zip(args.tables, tables):
            if seen == stem:
                raise DataError(f"{source}: same file stem {stem!r} as "
                                f"--tables {other}")
        meta, rows = read_rows(read_input(path, "--tables"), source)
        (header_no, header), *body = rows
        if tables and header != columns:
            raise DataError(f"{source} line {header_no}: column mismatch with "
                            f"the header of {args.tables[0]}")
        columns = header
        tables.append((stem, body))
        hashes.add(meta.get("taxonomy_hash"))
    hashes.discard(None)
    meta = {"sources": ",".join(stem for stem, _ in tables)}
    if len(hashes) == 1:
        meta["taxonomy_hash"] = hashes.pop()
    id_columns = set(POINT_ID_COLUMNS + MEAN_ID_COLUMNS)
    ids = [c for c in columns if c in id_columns]
    metrics = [c for c in columns if c not in id_columns and not c.endswith("_hw")]
    col = {c: i for i, c in enumerate(columns)}
    out_lines = [",".join(["source", *ids, "metric", "value", "half_width"])]
    for stem, body in tables:
        for _, cells in body:
            for metric in metrics:
                hw = cells[col[metric + "_hw"]] if metric + "_hw" in col else ""
                out_lines.append(",".join([stem, *(cells[col[c]] for c in ids),
                                           metric, cells[col[metric]], hw]))
    write_csv(args.out, meta, out_lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hiercls",
                     description="hierarchy-aware classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_h = sub.add_parser("hierarchy", help="build or randomize trees")
    hsub = p_h.add_subparsers(dest="action", required=True)
    p_build = hsub.add_parser("build")
    p_build.add_argument("--edges", required=True)
    p_build.add_argument("--classes", required=True)
    p_build.add_argument("--edits", default=None)
    p_build.add_argument("--out", required=True)
    p_rand = hsub.add_parser("randomize")
    p_rand.add_argument("--taxonomy", required=True)
    p_rand.add_argument("--classes", required=True)
    p_rand.add_argument("--seed", required=True)
    p_rand.add_argument("--out", required=True)
    p_rand.add_argument("--permutation-out", default=None)

    p_g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p_g.add_argument("--taxonomy", required=True)
    p_g.add_argument("--classes", required=True)
    p_g.add_argument("--per-class", default="500")
    p_g.add_argument("--dim", default="16")
    p_g.add_argument("--step-scale", default="1.0")
    p_g.add_argument("--noise-scale", default="0.75")
    p_g.add_argument("--level-decay", default="1.0")
    p_g.add_argument("--seed", default="0")
    p_g.add_argument("--out", required=True)

    p_t = sub.add_parser("train", help="train one classifier")
    p_t.add_argument("--data", required=True)
    p_t.add_argument("--taxonomy", required=True)
    p_t.add_argument("--classes", required=True)
    p_t.add_argument("--loss", choices=tuple(LOSS_PARAMETERS), required=True)
    p_t.add_argument("--alpha")
    p_t.add_argument("--beta")
    p_t.add_argument("--seed", default="0")
    p_t.add_argument("--out", required=True)
    # The run settings: defaults, values and checks come from SweepConfig.
    for key in RUN_SETTINGS:
        p_t.add_argument(_flag(key))

    p_e = sub.add_parser("evaluate", help="evaluate checkpoints")
    p_e.add_argument("--data", required=True)
    p_e.add_argument("--taxonomy", required=True)
    p_e.add_argument("--classes", required=True)
    for key in _EVALUATE_SETTINGS:
        p_e.add_argument(_flag(key))
    p_e.add_argument("--split-name", choices=SPLIT_NAMES,
                     default="test")
    group = p_e.add_mutually_exclusive_group(required=True)
    group.add_argument("--run", default=None,
                       help="training output directory (averages the selection)")
    group.add_argument("--checkpoint", default=None,
                       help="a single checkpoint file")
    p_e.add_argument("--out-report", required=True)
    p_e.add_argument("--out-histogram", default=None)

    p_s = sub.add_parser("sweep", help="run a hyperparameter grid")
    p_s.add_argument("--config", required=True)
    p_s.add_argument("--workers")
    p_s.add_argument("--out", required=True)

    p_r = sub.add_parser("report", help="merge tables or normalize histograms")
    rgroup = p_r.add_mutually_exclusive_group(required=True)
    rgroup.add_argument("--tables", nargs="+", default=None)
    rgroup.add_argument("--histogram", default=None)
    p_r.add_argument("--out", required=True)
    return parser


_HANDLERS = {
    "hierarchy": cmd_hierarchy,
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (HierarchyError, DataError, ValueError, OSError,
            TrainingDivergedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
