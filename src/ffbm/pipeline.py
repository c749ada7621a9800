"""End-to-end experiment orchestration: chains, metrics, repetitions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    EvaluationReport,
    check_target_dim,
    loss_and_accuracy,
    mean_description_length,
    reduce_dimension,
    summarize_weights,
)
from .block_chain import estimate_responsibilities, run_block_chain
from .config import PARTITION_CHAIN, REDUCED_WEIGHT_CHAIN, WEIGHT_CHAIN, RunConfig, chain_config
from .dataio import DataFormatError, load_network, load_polbooks
from .graph import LabelledNetwork, split_vertices
from .mala import run_weight_chain
from .sampling import stream_seed_int, stream_seed_sequence
from .softmax import ObjectiveContext


@dataclass
class RepetitionArtifacts:
    """Chain-level outputs of one repetition, filled in stage by stage."""

    block_result: object
    responsibilities: np.ndarray
    split: object = None
    weight_result: object = None
    reduction: object = None
    reduced_weight_result: object = None


def load_config_network(cfg: RunConfig) -> LabelledNetwork:
    """Resolve the dataset paths of a config; defaults to the bundled network."""
    if cfg.edges is None and cfg.features is None and cfg.categorical_features is None:
        return load_polbooks()
    if cfg.edges is None:
        raise DataFormatError("feature files were given without an edge list")
    return load_network(cfg.edges, cfg.features, cfg.categorical_features)


def partition_stage(net: LabelledNetwork, cfg: RunConfig, repetition: int) -> RepetitionArtifacts:
    """Stage 1: the partition chain and the aligned block-membership estimate."""
    block_cfg = chain_config(cfg, PARTITION_CHAIN,
                             seed=stream_seed_int(cfg.seed, "block-chain", repetition))
    block_res = run_block_chain(net, cfg.num_blocks, block_cfg)
    responsibilities = estimate_responsibilities(
        block_res.samples, block_res.reference, cfg.num_blocks)
    return RepetitionArtifacts(block_result=block_res, responsibilities=responsibilities)


def _weight_chain(cfg: RunConfig, art: RepetitionArtifacts, features, chain, seed):
    """The weight chain on the training rows of the given feature columns."""
    ctx = ObjectiveContext(features[art.split.train], art.responsibilities[art.split.train], cfg.sigma)
    return run_weight_chain(ctx, chain_config(cfg, chain, seed=seed))


def require_features(net: LabelledNetwork) -> None:
    """The weight stage's precondition; callers check it before any stage runs."""
    if net.num_features == 0:
        raise DataFormatError("the weight sampler needs a feature matrix")


def weight_stage(net: LabelledNetwork, cfg: RunConfig, repetition: int,
                 art: RepetitionArtifacts) -> None:
    """Stage 2: the train/test split and the weight chain on all features."""
    require_features(net)
    art.split = split_vertices(net.num_vertices, cfg.train_fraction,
                               stream_seed_sequence(cfg.seed, "split", repetition))
    art.weight_result = _weight_chain(
        cfg, art, net.features, WEIGHT_CHAIN,
        stream_seed_sequence(cfg.seed, "weight-chain", repetition))


def screen_stage(net: LabelledNetwork, cfg: RunConfig, repetition: int,
                 art: RepetitionArtifacts) -> None:
    """Stage 3: keep the reduce_dim best-scoring features and rerun the weight chain on them."""
    summary = summarize_weights(art.weight_result.samples)
    art.reduction = reduce_dimension(summary, cfg.reduce_multiplier, cfg.reduce_dim)
    art.reduced_weight_result = _weight_chain(
        cfg, art, net.features[:, art.reduction.kept], REDUCED_WEIGHT_CHAIN,
        stream_seed_sequence(cfg.seed, "reduced-weight-chain", repetition))


def run_repetition(net: LabelledNetwork, cfg: RunConfig, repetition: int):
    """One full pipeline pass: the partition, weight and (with reduce_dim) screen stages, then metrics."""
    art = partition_stage(net, cfg, repetition)
    weight_stage(net, cfg, repetition, art)
    if cfg.reduce_dim is not None:
        screen_stage(net, cfg, repetition, art)

    block_res, weight_res = art.block_result, art.weight_result
    responsibilities, split = art.responsibilities, art.split
    loss_train, accuracy_train = loss_and_accuracy(
        weight_res.samples, responsibilities, net.features, split.train)
    loss_test, accuracy_test = loss_and_accuracy(
        weight_res.samples, responsibilities, net.features, split.test)
    retained_s = block_res.s_trace[block_res.retained]
    report = EvaluationReport(
        mean_dl=mean_description_length(retained_s, net.num_vertices, net.num_edges,
                                        cfg.num_blocks),
        loss_train=loss_train,
        loss_test=loss_test,
        accuracy_train=accuracy_train.tolist(),
        accuracy_test=accuracy_test.tolist(),
        acceptance_ratio=weight_res.acceptance_ratio,
        mean_objective=weight_res.mean_objective,
    )
    if art.reduction is not None:
        reduced_res = art.reduced_weight_result
        reduced_features = net.features[:, art.reduction.kept]
        report.cutoff = art.reduction.cutoff
        report.kept_features = [int(d) for d in art.reduction.kept]
        report.reduced_loss_train, _ = loss_and_accuracy(
            reduced_res.samples, responsibilities, reduced_features, split.train)
        report.reduced_loss_test, _ = loss_and_accuracy(
            reduced_res.samples, responsibilities, reduced_features, split.test)
        report.reduced_acceptance_ratio = reduced_res.acceptance_ratio
    return report, art


def _repetition_task(args):
    net, cfg, repetition, keep_artifacts = args
    try:
        report, artifacts = run_repetition(net, cfg, repetition)
    except Exception as exc:
        # Same type, so the exit code stays; the message says which repetition failed.
        exc.args = (f"repetition {repetition} (master seed {cfg.seed}): {exc}",)
        raise
    return report, (artifacts if keep_artifacts else None)


def run_experiment(net: LabelledNetwork, cfg: RunConfig, jobs: int = 1, keep_artifacts: bool = False):
    """All repetitions, optionally in parallel processes; order is by index.

    A failing repetition raises its exception, of its own type, with the
    repetition index and the master seed in the message.
    """
    require_features(net)
    if cfg.reduce_dim is not None:
        check_target_dim(cfg.reduce_dim, net.num_features)
    tasks = [(net, cfg, rep, keep_artifacts) for rep in range(cfg.repetitions)]
    if jobs > 1 and cfg.repetitions > 1:
        # Imported here: the process pool costs about 20 ms of imports,
        # which a serial run need not pay.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_repetition_task, tasks))
    else:
        results = [_repetition_task(t) for t in tasks]
    reports = [r for r, _ in results]
    artifacts = [a for _, a in results] if keep_artifacts else None
    return reports, artifacts


_LIST_METRICS = ("accuracy_train", "accuracy_test")
_SKIP_METRICS = ("kept_features",)


def aggregate_reports(reports) -> dict:
    """Mean and population std of every numeric metric across repetitions.

    Per-block accuracy lists are aggregated elementwise ignoring undefined
    (empty-block) entries; all-undefined entries aggregate to null.
    """
    dicts = [r.to_dict() for r in reports]
    mean, std = {}, {}
    for key in dicts[0]:
        if key in _SKIP_METRICS:
            continue
        values = [d.get(key) for d in dicts]
        if key in _LIST_METRICS:
            arr = np.array([[np.nan if v is None else v for v in row] for row in values], dtype=float)
            with np.errstate(invalid="ignore"):
                m = np.nanmean(arr, axis=0)
                s = np.nanstd(arr, axis=0)
            mean[key] = [None if np.isnan(x) else float(x) for x in m]
            std[key] = [None if np.isnan(x) else float(x) for x in s]
        else:
            numeric = np.array([v for v in values if v is not None], dtype=float)
            if numeric.size == 0:
                mean[key] = None
                std[key] = None
            else:
                mean[key] = float(numeric.mean())
                std[key] = float(numeric.std(ddof=0))
    return {"mean": mean, "std": std}


def experiment_payload(net: LabelledNetwork, cfg: RunConfig, reports) -> dict:
    """JSON-ready experiment summary mirroring the per-dataset results table."""
    payload = {
        "dataset": {
            "num_vertices": net.num_vertices,
            "num_edges": net.num_edges,
            "num_features": net.num_features,
            "feature_names": list(net.feature_names),
        },
        "config": cfg.to_dict(),
        "per_repetition": [r.to_dict() for r in reports],
    }
    payload.update(aggregate_reports(reports))
    return payload
