"""Command-line interface: training runs, sweeps, bound reports, and data tools.

Every command writes its resolved manifest into the output directory, so
a run can be reproduced from the directory alone. Exit codes: 0 success,
1 runtime failure (an error record is written when possible), 2 usage.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import __version__
from .autodiff import grad_check
from .bounds import BoundContext, bound_report, complexity_prefactor, complexity_regularizer
from .graphs import (PROPAGATION_MODES, Graph, SplitSpec, ValidationError, build_propagation,
                     generate_sbm, load_graph)
from .model import (STRATEGIES, TASKS, BoundLayer, ModelConfig, checked_keys, forward,
                    init_params, load_checkpoint, save_checkpoint)
from .training import (GRID_COLUMNS, RunRecord, TrainConfig, TrainingAborted, depth_dims,
                       grid_search, oversmoothing_profile, robustness_sweep, train)

OUTPUT_ROOT_ENV = "FLEXIDROP_OUTPUT_ROOT"

DEFAULT_DATASET = {"kind": "sbm", "num_nodes": 200, "num_blocks": 2, "p_in": 0.1,
                   "p_out": 0.01, "feature_dim": 16, "noise_scale": 0.1, "seed": 42}


def _output_dir(args, command: str) -> Path:
    """The command's output directory, without an earlier run's error record."""
    if args.out:
        out = Path(args.out)
    else:
        root = Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))
        out = root / command
    out.mkdir(parents=True, exist_ok=True)
    (out / "error.json").unlink(missing_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# dataset spec key -> JSON type (see model.checked_keys), per dataset kind
DATASET_KEYS = {
    "sbm": {"kind": "str", "num_nodes": "int", "num_blocks": "int", "p_in": "float",
            "p_out": "float", "feature_dim": "int", "noise_scale": "float", "seed": "int",
            "split_fractions": "tuple[float, float, float]"},
    "files": {"kind": "str", "edges": "str", "features": "str", "labels": "str",
              "split": "dict"},
}
SPLIT_KEYS = {"index_files": "tuple[str, str, str]", "fractions": "tuple[float, float, float]",
              "seed": "int"}


def checked_dataset(spec: dict) -> dict:
    """A checked copy of a config's dataset spec, its ``split`` mapping included: an unknown
    key, a missing path or a value of the wrong JSON type raises ValidationError naming the
    key, strings are never parsed, and a float key's integer value comes back a float."""
    kind = spec.get("kind", "sbm") if isinstance(spec, dict) else "sbm"
    if kind not in ("sbm", "files"):
        raise ValidationError(f"unknown dataset kind {kind!r}")
    spec = checked_keys("dataset", spec, DATASET_KEYS[kind],
                        ("edges", "features", "labels") if kind == "files" else ())
    if "split" in spec:
        spec["split"] = checked_keys("dataset split", spec["split"], SPLIT_KEYS)
    return spec


def load_dataset(spec: dict) -> Graph:
    """The graph a config's dataset spec describes, once ``checked_dataset`` passes it."""
    spec = checked_dataset(spec)
    if spec.get("kind", "sbm") == "sbm":
        return generate_sbm(**{k: v for k, v in {**DEFAULT_DATASET, **spec}.items()
                               if k != "kind"})
    split_spec = spec.get("split", {})
    if "index_files" in split_spec:
        if len(split_spec) > 1:
            raise ValidationError("dataset split: 'index_files' takes no 'fractions' or 'seed'")
        split = SplitSpec(index_files=tuple(split_spec["index_files"]))
    else:
        split = SplitSpec(fractions=tuple(split_spec.get("fractions", (0.6, 0.2, 0.2))),
                          seed=split_spec.get("seed", 0))
    return load_graph(spec["edges"], spec["features"], spec["labels"], split)


# the config keys each sweep's axes overwrite in every cell; no cell reads them,
# so the sweep refuses them in --config and has no flag for them
SWEPT_KEYS = {
    "grid": ("model.strategy", "model.rate", "train.seed", "train.reg_lambda"),
    "attack": ("model.strategy", "model.rate", "train.seed"),
    "oversmooth": ("model.strategy", "model.rate", "model.layer_dims", "model.hidden_dims",
                   "model.output_dim"),
}


def _resolve(args, command: str) -> tuple[Graph, ModelConfig, TrainConfig, Path, dict]:
    """Config file plus flags -> dataset, model, train config, output dir and manifest config.

    A key of the command's ``SWEPT_KEYS`` raises ValidationError, and the
    returned manifest config leaves those keys out, as no cell runs them.
    The command adds its sweep axes and writes the manifest before
    anything trains, so a failed run still names its inputs.
    """
    config = json.loads(Path(args.config).read_text()) if args.config else {}
    checked_keys("config", config, {"dataset": "dict", "model": "dict", "train": "dict"})
    for key in SWEPT_KEYS.get(command, ()):
        section, name = key.split(".")
        if name in config.get(section, {}):
            raise ValidationError(f"{command}: config key {key!r} is set per cell by the sweep")
    dataset = checked_dataset(config.get("dataset", DEFAULT_DATASET))
    graph = load_dataset(dataset)
    model = dict(config.get("model", {}))
    for key in ("strategy", "rate", "propagation_mode", "task"):   # train has all four flags
        if getattr(args, key, None) is not None:
            model[key] = getattr(args, key)
    for key in ("hidden_dims", "output_dim"):
        if key in model and "layer_dims" in model:
            raise ValidationError(f"model: key {key!r} is not read next to 'layer_dims'")
    link = model.get("task") == "link_prediction"
    if "output_dim" in model and not link:
        raise ValidationError("model: key 'output_dim' is read only under link_prediction")
    if "layer_dims" not in model:
        widths = checked_keys("model", {
            "hidden_dims": model.pop("hidden_dims", [256]),
            "output_dim": model.pop("output_dim", 32 if link else graph.num_classes)},
            {"hidden_dims": "tuple[int, ...]", "output_dim": "int"})
        model["layer_dims"] = [graph.feature_dim, *widths["hidden_dims"], widths["output_dim"]]
    model_config = ModelConfig.from_dict(model)
    tc = dict(config.get("train", {}))
    for key in ("epochs", "seed", "reg_lambda", "eval_every", "learning_rate"):
        if getattr(args, key, None) is not None:   # a sweep has no flag for a swept key
            tc[key] = getattr(args, key)
    train_config = TrainConfig.from_dict(tc)
    resolved = {"dataset": dataset, "model": model_config.to_dict(),
                "train": train_config.to_dict()}
    for key in SWEPT_KEYS.get(command, ()):
        section, name = key.split(".")
        resolved[section].pop(name, None)
    return graph, model_config, train_config, _output_dir(args, command), resolved


def _write_manifest(out: Path, command: str, config: dict) -> None:
    clean = {k: v for k, v in config.items() if not callable(v)}
    _write_json(out / "manifest.json",
                {"command": command, "version": __version__, "config": clean})


def _csv(text: str, kind=str) -> list:
    """A comma-separated flag value as a list of ``kind``; empty items are skipped."""
    return [kind(x.strip()) for x in text.split(",") if x.strip()]


# ---- subcommands ----------------------------------------------------------------


def cmd_train(args) -> int:
    graph, model_config, train_config, out, resolved = _resolve(args, "train")
    _write_manifest(out, "train", resolved)
    try:
        result = train(graph, model_config, train_config)
    except TrainingAborted as exc:
        save_checkpoint(out / "last_finite", exc.params, model_config,
                        extra={"aborted_epoch": exc.epoch})
        exc.record.write_csv(out / "run.csv")
        _write_json(out / "error.json", {"type": "TrainingAborted", "epoch": exc.epoch,
                                         "error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result.record.write_csv(out / "run.csv")
    result.record.write_summary(out / "summary.json")
    save_checkpoint(out / "model", result.params, model_config)
    ctx = BoundContext.from_graph(graph, model_config.num_layers)
    report = bound_report(ctx, result.params, model_config.propagation_mode)
    _write_json(out / "bound_report.json", report)
    print(f"final test accuracy {result.record.summary['final_test_accuracy']}")
    print(f"outputs in {out}")
    return 0


def cmd_grid(args) -> int:
    strategies, rates, seeds = (_csv(args.strategies), _csv(args.rates, float),
                                _csv(args.seeds, int))
    graph, model_config, train_config, out, resolved = _resolve(args, "grid")
    _write_manifest(out, "grid", {**resolved, "strategies": strategies, "rates": rates,
                                  "seeds": seeds})
    rows = grid_search(graph, model_config, strategies, rates, seeds, train_config)
    RunRecord(GRID_COLUMNS, rows).write_csv(out / "grid.csv")
    print(f"grid written to {out / 'grid.csv'}")
    return 0


def cmd_oversmooth(args) -> int:
    depths, strategies = _csv(args.depths, int), _csv(args.strategies)
    graph, model_config, train_config, out, resolved = _resolve(args, "oversmooth")
    dims = [depth_dims(graph, model_config, d, args.hidden_dim) for d in depths]
    _write_manifest(out, "oversmooth", {**resolved, "depths": depths, "strategies": strategies,
                                        "hidden_dim": args.hidden_dim, "rate": args.fixed_rate,
                                        "layer_dims": [list(d) for d in dims]})
    rows = oversmoothing_profile(graph, model_config, dims, strategies, train_config,
                                 rate=args.fixed_rate)
    RunRecord(["depth", "strategy", "test_accuracy", "final_energy", "status"],
              rows).write_csv(out / "oversmoothing.csv")
    print(f"profile written to {out / 'oversmoothing.csv'}")
    return 0


def cmd_attack(args) -> int:
    fractions, strategies, seeds = (_csv(args.fractions, float), _csv(args.strategies),
                                    _csv(args.seeds, int))
    graph, model_config, train_config, out, resolved = _resolve(args, "attack")
    _write_manifest(out, "attack", {**resolved, "fractions": fractions,
                                    "strategies": strategies, "seeds": seeds,
                                    "rate": args.fixed_rate})
    rows = robustness_sweep(graph, model_config, fractions, strategies, seeds, train_config,
                            rate=args.fixed_rate)
    RunRecord(["fraction", "strategy", "seed", "test_accuracy", "status"],
              rows).write_csv(out / "robustness.csv")
    print(f"sweep written to {out / 'robustness.csv'}")
    return 0


def cmd_bound(args) -> int:
    ctx = BoundContext(num_layers=args.layers, num_classes=args.classes,
                       feature_dim=args.feature_dim, num_nodes=args.nodes,
                       feature_inf_max=args.feature_inf_max)
    value = complexity_prefactor(ctx)
    print(f"complexity_prefactor {value!r}")
    if args.checkpoint:
        params, model_config, _ = load_checkpoint(args.checkpoint)
        dims = model_config.layer_dims   # a link model's output width is no class count
        classes = dims[-1] if model_config.task == "node_classification" else args.classes
        for flag, given, fit in (("--layers", args.layers, len(dims) - 1),
                                 ("--feature-dim", args.feature_dim, dims[0]),
                                 ("--classes", args.classes, classes)):
            if given != fit:
                raise ValidationError(f"{flag} {given} does not fit checkpoint {args.checkpoint}, "
                                      f"whose layer_dims are {list(dims)}")
        report = bound_report(ctx, params, model_config.propagation_mode)
        print(f"complexity_bound {report['complexity_bound']!r}")
        if args.out:
            out = _output_dir(args, "bound")
            _write_manifest(out, "bound", vars(args))
            _write_json(out / "bound_report.json", report)
    return 0


def _gradcheck_instance(seed: int) -> list:
    """Two gradient checks: a composite of every tape op, and the model with its regularizer."""
    rng = np.random.default_rng(seed)
    a0 = rng.uniform(-1, 1, (3, 4))
    b0 = rng.uniform(-1, 1, (4, 2))
    v0 = rng.uniform(0.5, 1.5, (4, 1))
    spm = sp.csr_matrix((rng.random((3, 3)) < 0.6) * rng.random((3, 3)))
    labels = rng.integers(0, 2, 3)

    def build(tape, leaves):
        a, b, v = leaves
        m = tape.matmul(a, b)
        s = tape.add(m, tape.relu(m))
        s = tape.sub(s, tape.scalar_mul(0.5, m))
        e = tape.elementwise_mul(s, tape.sigmoid(s))
        ce = tape.softmax_cross_entropy(tape.spmm(spm, e, p_t=spm.T), labels,
                                        np.ones(3, dtype=bool))
        r = tape.row_broadcast_mul(tape.exp(tape.scalar_mul(0.1, b)), tape.log(v))
        norms = tape.column_l2_norms(e)
        mix = tape.add(tape.max_reduce(norms), tape.product_reduce(tape.column_l2_norms(r)))
        dots = tape.pair_dot(e, np.array([[0, 2], [1, 1], [0, 2]]))
        return tape.add(tape.add(tape.mean(e), tape.sum(r)),
                        tape.add(tape.add(mix, ce), tape.mean(dots)))

    reports = [grad_check(build, [a0, b0, v0])]

    graph = generate_sbm(12, 2, 0.6, 0.2, 3, 0.1, seed)
    prop = build_propagation(graph, "row_stochastic")
    config = ModelConfig(layer_dims=(3, 4, 2), strategy="flexidrop")
    params = init_params(config, seed)
    ctx = BoundContext.from_graph(graph, 2)
    shapes = [p.weight for p in params] + [p.retention_logits for p in params]

    def model_loss(tape, leaves):
        k = len(params)
        layers = [BoundLayer(leaves[i], leaves[k + i]) for i in range(k)]
        logits = forward(tape, prop, layers, config, mode="train", seed=0)
        loss = tape.softmax_cross_entropy(logits, graph.labels, graph.train_mask)
        reg = complexity_regularizer(tape, ctx, layers)
        return tape.add(loss, tape.scalar_mul(0.5, reg))

    return reports + [grad_check(model_loss, shapes)]


def cmd_gradcheck(args) -> int:
    all_ok = True
    for i in range(args.instances):
        ok = all(r.passed for r in _gradcheck_instance(args.seed + i))
        print(f"instance {i}: {'pass' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    if not all_ok:
        print("gradient check failed", file=sys.stderr)
        return 1
    print(f"all {args.instances} instances passed")
    return 0


def cmd_sbm(args) -> int:
    graph = generate_sbm(**{key: getattr(args, key) for key in DEFAULT_DATASET if key != "kind"})
    out = _output_dir(args, "sbm")
    _write_manifest(out, "sbm", vars(args))
    np.savetxt(out / "edges.txt", graph.edges, fmt="%d", header="u v")
    np.savetxt(out / "features.csv", graph.features, delimiter=",", fmt="%.17g")
    np.savetxt(out / "labels.csv", graph.labels.reshape(-1, 1), delimiter=",", fmt="%d")
    for name, mask in (("train", graph.train_mask), ("val", graph.val_mask),
                       ("test", graph.test_mask)):
        np.savetxt(out / f"{name}_idx.txt", np.flatnonzero(mask).reshape(-1, 1), fmt="%d")
    print(f"dataset written to {out}")
    return 0


# ---- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix such as --rate must not silently
    # stand for --rates, nor --epoch for --epochs
    parser = argparse.ArgumentParser(prog="flexidrop", allow_abbrev=False,
                                     description="GNN training with trainable dropout retention")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        return sub.add_parser(name, help=help_text, allow_abbrev=False)

    def common(p, name, with_model=True):
        swept = SWEPT_KEYS.get(name, ())
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help=f"output directory (default ${OUTPUT_ROOT_ENV}/<command>)")
        p.add_argument("--epochs", type=int)
        if "train.seed" not in swept:
            p.add_argument("--seed", type=int)
        p.add_argument("--eval-every", dest="eval_every", type=int)
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        if "train.reg_lambda" not in swept:
            p.add_argument("--lambda", dest="reg_lambda", type=float,
                           help="regularization weight for the trainable-retention strategy")
        if with_model:
            p.add_argument("--propagation", dest="propagation_mode", choices=PROPAGATION_MODES)
            p.add_argument("--task", choices=TASKS)

    def sweep_rate(p):
        p.add_argument("--rate", dest="fixed_rate", type=float, default=0.0,
                       help="dropout rate of the fixed strategies listed in --strategies")

    p = command("train", "train one model and write its run record")
    common(p, "train")
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--rate", type=float)
    p.set_defaults(func=cmd_train)

    p = command("grid", "sweep strategies x rates x seeds")
    common(p, "grid")   # --rates sweeps the flexidrop cells' regularization weight
    p.add_argument("--strategies", default="none,flexidrop,fixed_dropout")
    p.add_argument("--rates", default="0.1,0.3,0.5")
    p.add_argument("--seeds", default="0,1,2")
    p.set_defaults(func=cmd_grid)

    p = command("oversmooth", "depth sweep with final-layer energy")
    common(p, "oversmooth", with_model=False)
    p.add_argument("--depths", default="2,4,8,16,32")
    p.add_argument("--strategies", default="none,flexidrop")
    sweep_rate(p)
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int, default=32)
    p.set_defaults(func=cmd_oversmooth)

    p = command("attack", "random edge injection robustness sweep")
    common(p, "attack")
    p.add_argument("--fractions", default="0,0.5")
    p.add_argument("--strategies", default="none,flexidrop")
    p.add_argument("--seeds", default="0,1,2")
    sweep_rate(p)
    p.set_defaults(func=cmd_attack)

    p = command("bound", "print the complexity prefactor and optional report")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--feature-dim", dest="feature_dim", type=int, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--feature-inf-max", dest="feature_inf_max", type=float, required=True)
    p.add_argument("--checkpoint", help="checkpoint stem for a full bound report")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = command("gradcheck", "finite-difference check of the whole op set")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=5)
    p.set_defaults(func=cmd_gradcheck)

    p = command("sbm", "generate a block-model dataset as loadable files")
    for key, value in DEFAULT_DATASET.items():   # its flags default to the default dataset
        if key != "kind":
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(value), default=value)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sbm)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # error.json goes where the command writes its outputs, under the default
        # root without --out; bound writes only under --out and gradcheck nowhere
        if getattr(args, "out", None) or args.command not in ("bound", "gradcheck"):
            try:
                _write_json(_output_dir(args, args.command) / "error.json",
                            {"type": type(exc).__name__, "error": str(exc)})
            except OSError:
                pass
        return 1


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
