"""End-to-end experiment orchestration: chains, metrics, repetitions.

A repetition runs four stages: partition_stage, weight_stage, screen_stage
(with reduce_dim) and repetition_report.  Each stage reads and fills a
RepetitionArtifacts, which carries its repetition index.  run_experiment
cuts the repetitions into one contiguous run per worker (one run when jobs
is 1) and takes each run stage by stage: its partition chains, then its
weight and screen stages, whose chains run in lockstep
(mala.run_weight_chains), then the metrics.  run_repetition is the same
code for one repetition.  Both check the stages' preconditions
(check_preconditions) before any stage runs, and every stage runs inside
_naming, which puts the failing repetition and the master seed in an
exception's message.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .analysis import (
    EvaluationReport,
    check_target_dim,
    loss_and_accuracy,
    mean_description_length,
    null_if_undefined,
    reduce_dimension,
    summarize_weights,
)
from .block_chain import estimate_responsibilities, run_block_chain
from .config import PARTITION_CHAIN, REDUCED_WEIGHT_CHAIN, WEIGHT_CHAIN, RunConfig, chain_config
from .dataio import DataFormatError, load_network, load_polbooks
from .graph import LabelledNetwork, split_vertices
from .mala import WeightChainError, run_weight_chains
from .sampling import check_integer, stream_seed_int, stream_seed_sequence
from .softmax import ObjectiveContext


@dataclass(eq=False)
class RepetitionArtifacts:
    """Chain-level outputs of one repetition, filled in stage by stage."""

    repetition: int
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
    return RepetitionArtifacts(repetition, block_res, responsibilities)


def _weight_chains(cfg: RunConfig, arts, features, chain, stream) -> list:
    """The weight chains of the artifacts on the training rows of their feature columns, in lockstep."""
    ctxs = [ObjectiveContext(f[art.split.train], art.responsibilities[art.split.train], cfg.sigma)
            for f, art in zip(features, arts)]
    cfgs = [chain_config(cfg, chain, seed=stream_seed_sequence(cfg.seed, stream, art.repetition))
            for art in arts]
    return run_weight_chains(ctxs, cfgs)


def require_features(net: LabelledNetwork) -> None:
    """The weight stage's precondition: a feature matrix, and two vertices to split."""
    if net.num_features == 0:
        raise DataFormatError("the weight sampler needs a feature matrix")
    if net.num_vertices < 2:
        raise DataFormatError("the weight stage splits the vertices into train and test sides, "
                              f"which needs at least 2 vertices, got {net.num_vertices}")


def check_preconditions(net: LabelledNetwork, cfg: RunConfig) -> None:
    """What the stages of a repetition need of the network and the config
    beyond the config's own rules; run_experiment and run_repetition check
    it before any stage runs."""
    require_features(net)
    if cfg.reduce_dim is not None:
        check_target_dim(cfg.reduce_dim, net.num_features)


def weight_stage(net: LabelledNetwork, cfg: RunConfig, arts) -> None:
    """Stage 2 for the given artifacts: each one's train/test split, then all
    their weight chains, on all features, in lockstep.

    A failing chain raises WeightChainError whose chain is its position in arts.
    """
    require_features(net)
    for art in arts:
        art.split = split_vertices(net.num_vertices, cfg.train_fraction,
                                   stream_seed_sequence(cfg.seed, "split", art.repetition))
    results = _weight_chains(cfg, arts, [net.features] * len(arts), WEIGHT_CHAIN, "weight-chain")
    for art, result in zip(arts, results):
        art.weight_result = result


def screen_stage(net: LabelledNetwork, cfg: RunConfig, arts) -> None:
    """Stage 3 for the given artifacts: each keeps its reduce_dim best-scoring
    features, then their weight chains rerun on them in lockstep."""
    for art in arts:
        summary = summarize_weights(art.weight_result.samples)
        art.reduction = reduce_dimension(summary, cfg.reduce_multiplier, cfg.reduce_dim)
    results = _weight_chains(cfg, arts, [net.features[:, art.reduction.kept] for art in arts],
                             REDUCED_WEIGHT_CHAIN, "reduced-weight-chain")
    for art, result in zip(arts, results):
        art.reduced_weight_result = result


def repetition_report(net: LabelledNetwork, cfg: RunConfig, art: RepetitionArtifacts) -> EvaluationReport:
    """Stage 4: the metrics of one repetition whose other stages have run."""
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
    return report


def run_repetition(net: LabelledNetwork, cfg: RunConfig, repetition: int):
    """One full pipeline pass: the partition, weight and (with reduce_dim)
    screen stages, then metrics; run_experiment's code for one repetition."""
    check_preconditions(net, cfg)
    reports, arts = _repetitions_task(net, cfg, [repetition], True)
    return reports[0], arts[0]


@contextmanager
def _naming(cfg: RunConfig, reps):
    """Re-raise an exception raised inside with the master seed and its
    repetition in the message; its type stays, and with it the exit code.

    reps is a contiguous sequence of the repetition indices inside.  A
    WeightChainError names reps[exc.chain]; any other exception names them
    all, as "repetition 3" or "repetitions 0 to 4".
    """
    try:
        yield
    except Exception as exc:
        if isinstance(exc, WeightChainError):
            reps = reps[exc.chain:exc.chain + 1]
        which = f"repetition {reps[0]}" if len(reps) == 1 else f"repetitions {reps[0]} to {reps[-1]}"
        exc.args = (f"{which} (master seed {cfg.seed}): {exc}",)
        raise


def _repetitions_task(net: LabelledNetwork, cfg: RunConfig, repetitions, keep_artifacts: bool):
    """Every stage of a run of repetitions: their partition chains one by
    one, then their weight and screen chains in lockstep, then the metrics."""
    arts = []
    for rep in repetitions:
        with _naming(cfg, [rep]):
            art = partition_stage(net, cfg, rep)
        if not keep_artifacts:
            # Only the S trace and the responsibilities are read from here on;
            # the retained partitions (N labels each) would wait for every
            # other repetition's partition chain.
            art.block_result.samples = []
        arts.append(art)
    with _naming(cfg, repetitions):
        weight_stage(net, cfg, arts)
        if cfg.reduce_dim is not None:
            screen_stage(net, cfg, arts)
    reports = []
    for art in arts:
        with _naming(cfg, [art.repetition]):
            reports.append(repetition_report(net, cfg, art))
    return reports, (arts if keep_artifacts else None)


def run_experiment(net: LabelledNetwork, cfg: RunConfig, jobs: int = 1, keep_artifacts: bool = False):
    """All repetitions; reports and artifacts are ordered by repetition index.

    The repetitions are cut into min(jobs, repetitions) contiguous runs of
    near-equal length, each run in its own worker process when jobs > 1.
    A run goes stage by stage: every partition chain, then the weight and
    screen chains of all its repetitions in lockstep (chain s of a lockstep
    stack equals the chain run alone), then the metrics.

    check_preconditions runs before any stage.  An exception raised in a
    stage keeps its type, and its message gains the master seed and the
    repetition it names: the failing repetition for a partition chain, a
    weight chain or a metric, and the run's repetitions for anything else
    raised in the lockstep weight and screen stages.  A jobs that is not an
    integer of at least 1 raises ValueError.
    """
    jobs = check_integer("jobs", jobs, 1)
    check_preconditions(net, cfg)
    count, parts = cfg.repetitions, min(jobs, cfg.repetitions)
    runs = [range(count * i // parts, count * (i + 1) // parts) for i in range(parts)]
    args = ([net] * parts, [cfg] * parts, runs, [keep_artifacts] * parts)
    if parts > 1:
        # Imported here: the process pool costs about 20 ms of imports,
        # which a serial run need not pay.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parts) as pool:
            results = list(pool.map(_repetitions_task, *args))
    else:
        results = list(map(_repetitions_task, *args))
    reports = [r for rs, _ in results for r in rs]
    artifacts = [a for _, arts in results for a in arts] if keep_artifacts else None
    return reports, artifacts


def aggregate_reports(reports) -> dict:
    """Mean and population std across repetitions of every metric but
    kept_features, which names features rather than measuring them.

    The metrics are the keys of every repetition, in first-seen order.  A
    metric's values, scalars or lists alike, are read as one float array
    with null, or a missing key, read as NaN, and each entry is averaged
    over the repetitions where it is defined, so a list aggregates entry by
    entry; a list that is null as a whole is undefined in each entry.  An
    entry undefined in every repetition aggregates to null.  A metric whose
    values differ in shape (a number and a list, or lists of two lengths)
    raises ValueError naming it, and so does an empty list of reports.
    """
    if not reports:
        raise ValueError("no repetition reports to aggregate")
    dicts = [r.to_dict() for r in reports]
    mean, std = {}, {}
    for key in dict.fromkeys(key for d in dicts for key in d):
        if key == "kept_features":
            continue
        values = [d.get(key) for d in dicts]
        shapes = {np.shape(v) for v in values if v is not None}
        if len(shapes) > 1:
            raise ValueError(f"report key {key!r} takes shapes {sorted(shapes)} in different repetitions")
        blank = np.full(shapes.pop() if shapes else (), np.nan)
        values = np.array([blank if v is None else v for v in values], dtype=float)
        # Zeros stand in for entries undefined everywhere, which numpy's
        # nan-reductions would warn about, and are masked out again below.
        empty = np.isnan(values).all(axis=0)
        values = np.where(empty, 0.0, values)
        mean[key], std[key] = (null_if_undefined(np.where(empty, np.nan, f(values, axis=0)).tolist())
                               for f in (np.nanmean, np.nanstd))
    return {"mean": mean, "std": std}


_INPUT_KEYS = ("edges", "features", "categorical_features")


def experiment_payload(net: LabelledNetwork, cfg: RunConfig, reports) -> dict:
    """JSON-ready experiment summary mirroring the per-dataset results table.

    The config holds the input paths as given; "input_sha256" maps each
    given path's key to the SHA-256 of the file's bytes, so the same data
    read from another directory can be recognised.  The digests are those
    that ``load_network`` recorded on net when it read the files, so net
    must be the config's network, and no file is read here.  A run on the
    bundled network gives no paths and no "input_sha256".
    """
    config = cfg.to_dict()
    payload = {
        "dataset": {
            "num_vertices": net.num_vertices,
            "num_edges": net.num_edges,
            "num_features": net.num_features,
            "feature_names": list(net.feature_names),
        },
        "config": config,
    }
    digests = {key: net.input_sha256[key] for key in _INPUT_KEYS if config[key] is not None}
    if digests:
        payload["input_sha256"] = digests
    payload["per_repetition"] = [r.to_dict() for r in reports]
    payload.update(aggregate_reports(reports))
    return payload
