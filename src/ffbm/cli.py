"""Command-line interface.

Subcommands:
    generate       draw a synthetic instance and write it to disk
    sample-blocks  run the partition stage, write samples / trace / responsibilities
    sample-theta   run the partition and weight stages, write weight samples and trace
    reduce         screen features from previously written weight samples
    report         run the full experiment (all repetitions) and write report.json
    run            like report, but also writes per-repetition artifacts

Exit codes: 0 success, 1 usage error, 2 data or configuration error
(including a path that cannot be read or written, such as a directory
given as a data file), 3 numeric failure inside a sampler.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis import reduce_dimension, summarize_weights
from .config import build_config
from .datagen import GeneratorSpec, generate
from .dataio import (
    DataFormatError,
    write_block_samples,
    write_edge_list,
    write_features,
    write_json,
    write_reduction,
    write_responsibilities,
    write_trace,
    write_weight_samples,
    read_weight_samples,
)
from .pipeline import (
    _naming,
    experiment_payload,
    load_config_network,
    partition_stage,
    require_features,
    run_experiment,
    weight_stage,
)
from .sampling import check_integer


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _common_flags(parser):
    parser.add_argument("--config", help="config file (JSON or key=value lines)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out-dir", default=".", help="output directory")


def _positive_int(text):
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _build_parser():
    parser = _Parser(prog="ffbm", description="Feature-first block model inference")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    gen = sub.add_parser("generate", help="write a synthetic instance")
    gen.add_argument("--num-vertices", type=int, required=True)
    gen.add_argument("--num-blocks", type=int, default=3)
    gen.add_argument("--num-features", type=int, default=None,
                     help="feature columns (default: one informative flag per block)")
    gen.add_argument("--feature-prob", type=float, default=0.5,
                     help="Bernoulli rate of each feature column")
    gen.add_argument("--affinity-diag", type=float, default=0.1)
    gen.add_argument("--affinity-off", type=float, default=0.01)
    gen.add_argument("--weight-scale", type=float, default=5.0,
                     help="planted weight of feature j towards block j")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", default=".")

    for name, helptext in (
        ("sample-blocks", "run the partition sampler"),
        ("sample-theta", "run partition and weight samplers"),
        ("reduce", "screen features using stored weight samples"),
        ("report", "run all repetitions and write report.json"),
        ("run", "full pipeline with per-repetition artifacts"),
    ):
        command = sub.add_parser(name, help=helptext)
        _common_flags(command)
        if name in ("report", "run"):  # the commands that run repetitions
            command.add_argument("--jobs", type=_positive_int, default=1,
                                 help="parallel worker processes for repetitions")
    return parser


def _write_block_outputs(out: Path, artifacts):
    block = artifacts.block_result
    write_block_samples(out / "block_samples.csv", block.samples, block.retained)
    write_trace(out / "s_trace.csv", block.s_trace, "S")
    write_responsibilities(out / "responsibilities.csv", artifacts.responsibilities)


def _write_theta_outputs(out: Path, artifacts, net):
    wres = artifacts.weight_result
    write_weight_samples(out / "theta_samples.csv", wres.samples, wres.retained, net.feature_names)
    write_trace(out / "u_trace.csv", wres.u_trace, "U")
    write_json(out / "theta_summary.json", {
        "acceptance_ratio": wres.acceptance_ratio,
        "mean_objective": wres.mean_objective,
        "retained_samples": len(wres.samples),
    })


def _cmd_generate(args) -> int:
    # Both size arrays, so they are checked before any is built.
    num_blocks = check_integer("--num-blocks", args.num_blocks, 1)
    num_features = num_blocks if args.num_features is None else check_integer(
        "--num-features", args.num_features, 0)
    weights = np.zeros((num_blocks, num_features))
    np.fill_diagonal(weights, args.weight_scale)
    affinity = np.full((num_blocks, num_blocks), args.affinity_off)
    np.fill_diagonal(affinity, args.affinity_diag)
    spec = GeneratorSpec(
        num_vertices=args.num_vertices,
        weights=weights,
        affinity=affinity,
        feature_probs=np.full(num_features, args.feature_prob),
        seed=args.seed,
    )
    net, truth = generate(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_edge_list(out / "edges.txt", net.edges, comment="synthetic planted-block instance")
    write_features(out / "features.csv", net.features, net.feature_names)
    write_json(out / "truth.json", {
        "memberships": [int(x) for x in truth["memberships"]],
        "weights": [[float(x) for x in row] for row in truth["weights"]],
        "affinity": [[float(x) for x in row] for row in truth["affinity"]],
        "seed": args.seed,
    })
    print(f"wrote synthetic instance with {net.num_vertices} vertices, "
          f"{net.num_edges} edges to {out}")
    return 0


def _cmd_reduce(cfg, out: Path) -> int:
    if cfg.reduce_dim is None:
        raise DataFormatError("reduce needs reduce_dim set (e.g. --set reduce_dim=10)")
    sample_file = out / "theta_samples.csv"
    if not sample_file.is_file():
        raise DataFormatError(f"{sample_file} not found; run sample-theta first")
    samples, _, names = read_weight_samples(sample_file)
    reduction = reduce_dimension(summarize_weights(samples), cfg.reduce_multiplier, cfg.reduce_dim)
    write_reduction(out / "reduction.csv", reduction, names)
    write_json(out / "reduction.json", {
        "cutoff": reduction.cutoff,
        "kept_features": [int(d) for d in reduction.kept],
        "kept_names": [names[int(d)] for d in reduction.kept],
    })
    print(f"kept {len(reduction.kept)} features, cutoff {reduction.cutoff:.6g}")
    return 0


def _run_command(args) -> int:
    cfg = build_config(args.config, args.overrides, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.command == "reduce":
        return _cmd_reduce(cfg, out)
    net = load_config_network(cfg)

    if args.command in ("sample-blocks", "sample-theta"):
        # The stages of repetition 0, so the outputs equal rep000/ of a one-repetition run.
        theta = args.command == "sample-theta"
        if theta:
            require_features(net)
        with _naming(cfg, [0]):
            artifacts = partition_stage(net, cfg, 0)
            if theta:
                weight_stage(net, cfg, [artifacts])
        _write_block_outputs(out, artifacts)
        if theta:
            _write_theta_outputs(out, artifacts, net)
            print(f"wrote {len(artifacts.weight_result.samples)} retained weight samples to {out}")
        else:
            print(f"wrote {len(artifacts.block_result.samples)} retained partition samples to {out}")
        return 0

    keep = args.command == "run"
    reports, artifacts = run_experiment(net, cfg, jobs=args.jobs, keep_artifacts=keep)
    payload = experiment_payload(net, cfg, reports)
    write_json(out / "report.json", payload)
    if keep:
        for rep, art in enumerate(artifacts):
            rep_dir = out / f"rep{rep:03d}"
            rep_dir.mkdir(exist_ok=True)
            _write_block_outputs(rep_dir, art)
            _write_theta_outputs(rep_dir, art, net)
            if art.reduction is not None:
                write_reduction(rep_dir / "reduction.csv", art.reduction, net.feature_names)
    mean = payload["mean"]
    print(f"report.json written to {out} "
          f"(mean description length per entity {mean['mean_description_length']:.4f}, "
          f"train loss {mean['loss_train']:.4f}, test loss {mean['loss_test']:.4f})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors and --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("ffbm: error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        return _run_command(args)
    except (DataFormatError, OSError, ValueError) as exc:
        print(f"ffbm: data error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"ffbm: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
