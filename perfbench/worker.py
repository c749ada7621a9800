"""One benchmark process: a fresh interpreter, so ffbm's lazy tables start cold.

    python3 perfbench/worker.py <root> <task> <workload> <seed> <spawn_time>

<spawn_time> is the parent's time.monotonic() just before it started this
process, so set-up time counts interpreter start-up.  A SpeedClock samples
the machine's speed from the start of the process, and every time reported
is in its reference seconds (see clock.py); the pass task also reports
wall seconds.  Tasks:

setup     import ffbm and make the network; nothing else.
pass      set up, then run_experiment + experiment_payload untraced, then
          check the outputs.
traced    the same calls as run_repetition, one span around each public
          call, plus the per-layer probes that need a warm process.
dl-probe  first (cold tables) and second description_length call on the
          planted partition of the workload's first network.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import sys
import tempfile
import time

import numpy as np

import ess
from clock import SpeedClock


def _peak_rss_mb() -> float:
    """Peak resident set of this process; Linux reports ru_maxrss in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_ffbm(root: str):
    """Import ffbm from the checkout's src/, never from an installed copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ffbm

    if os.path.dirname(os.path.dirname(os.path.abspath(ffbm.__file__))) != os.path.abspath(src):
        raise ImportError(f"ffbm was imported from {ffbm.__file__}, not from {src}")
    import workloads

    return ffbm, workloads


class Tracer:
    """In-memory spans: name, start and end (time.monotonic()), parent index."""

    def __init__(self, clock: SpeedClock):
        self.clock = clock
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False, **attrs):
        record = {"name": name, "start": time.monotonic(), "end": None,
                  "parent": self._open[-1] if self._open else None, "probe": probe, **attrs}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.monotonic()
            self._open.pop()

    def total(self, name: str) -> float:
        """Reference seconds summed over the spans of that name (clock stopped)."""
        return sum(self.clock.ref_elapsed(s["start"], s["end"])
                   for s in self.spans if s["name"] == name)

    def export(self, origin: float) -> list:
        """The spans with start and end in wall seconds since origin."""
        return [{**s, "start": s["start"] - origin, "end": s["end"] - origin,
                 "ref_s": self.clock.ref_elapsed(s["start"], s["end"])} for s in self.spans]


def min_weight_ess(samples) -> float:
    """Smallest ESS over the entries of the retained weight matrices."""
    return float(ess.effective_sample_size(np.array([w.ravel() for w in samples])).min())


def check_outputs(ffbm, workloads, inst, artifacts, payload) -> list:
    """Failed checks per repetition (an empty list means it passed)."""
    net, num_blocks = inst.net, inst.cfg.num_blocks
    failures = [[] for _ in artifacts]
    for rep, art in enumerate(artifacts):
        block = art.block_result
        traced_s = float(block.s_trace[block.retained[-1]])
        fresh_s = ffbm.description_length(net, ffbm.BlockState(net, block.samples[-1], num_blocks))
        if not abs(traced_s - fresh_s) <= 1e-6:
            failures[rep].append(f"retained S {traced_s!r} != fresh description length {fresh_s!r}")
    if inst.name == "polbooks":
        for key, target, width in workloads.POLBOOKS_BOUNDS:
            value = payload["mean"][key]
            if not abs(value - target) < width:
                for rep_failures in failures:
                    rep_failures.append(f"mean {key} {value:.4f} outside {target}±{width}")
    return failures


def _compared_values(report) -> dict:
    """The run_repetition outputs the traced call sequence must reproduce."""
    return {"mean_dl": report.mean_dl, "loss_train": report.loss_train,
            "loss_test": report.loss_test, "acceptance_ratio": report.acceptance_ratio,
            "kept_features": report.kept_features}


def task_setup(root, name, seed, spawn_time, clock):
    ffbm, workloads = _import_ffbm(root)
    workloads.build(name, seed)
    ready = time.monotonic()
    clock.stop()
    return {"setup_s": clock.ref_elapsed(spawn_time, ready),
            "setup_wall_s": clock.wall_elapsed(spawn_time, ready), "peak_rss_mb": _peak_rss_mb()}


def task_pass(root, name, seed, spawn_time, clock):
    ffbm, workloads = _import_ffbm(root)
    batch = workloads.build(name, seed)
    ready = time.monotonic()

    results = []
    for inst in batch:
        reports, artifacts = ffbm.run_experiment(inst.net, inst.cfg, jobs=1, keep_artifacts=True)
        payload = ffbm.pipeline.experiment_payload(inst.net, inst.cfg, reports)
        results.append((inst, reports, artifacts, payload))
    done = time.monotonic()
    clock.stop()
    peak_rss_mb = _peak_rss_mb()

    theta_ess, overlaps, failures, values, means = [], [], [], [], []
    for inst, reports, artifacts, payload in results:
        theta_ess += [min_weight_ess(art.weight_result.samples) for art in artifacts]
        overlaps += [workloads.overlap(art.responsibilities.argmax(axis=1), inst.planted,
                                       inst.cfg.num_blocks) for art in artifacts]
        failures += check_outputs(ffbm, workloads, inst, artifacts, payload)
        values += [_compared_values(r) for r in reports]
        means.append({k: payload["mean"][k]
                      for k in ("mean_description_length", "loss_train", "loss_test")})
    return {
        "setup_s": clock.ref_elapsed(spawn_time, ready),
        "setup_wall_s": clock.wall_elapsed(spawn_time, ready),
        "run_s": clock.ref_elapsed(ready, done),
        "run_wall_s": clock.wall_elapsed(ready, done),
        "slowdown": clock.mean_slowdown(ready, done),
        "peak_rss_mb": peak_rss_mb,
        "theta_min_ess": theta_ess,
        "overlap": overlaps,
        "failures": failures,
        "values": values,
        "mean": means,
    }


def _traced_repetition(ffbm, tracer, inst, rep):
    """run_repetition's calls in its order, each public call in a span."""
    net, cfg = inst.net, inst.cfg
    span = tracer.span
    block_cfg = ffbm.BlockChainConfig(
        iterations=cfg.block_iters, burn_in=cfg.block_burn_in, thinning=cfg.block_thinning,
        smoothing=cfg.proposal_smoothing, init_restarts=cfg.init_restarts,
        seed=ffbm.stream_seed_int(cfg.seed, "block-chain", rep))
    with span("block_chain.run"):
        block_res = ffbm.run_block_chain(net, cfg.num_blocks, block_cfg)
    # Off the pipeline path: the initialiser alone, with the chain's seed.
    # It runs after the chain, on warm tables, so init_s leaves out the
    # partition-count table fill that the dl-probe measures on its own.
    with span("block_chain.init", probe=True):
        init = ffbm.mdl_partition(net, cfg.num_blocks, random.Random(block_cfg.seed),
                                  restarts=block_cfg.init_restarts)
    if not np.array_equal(init.partition(), block_res.reference):
        raise AssertionError("standalone initialiser differs from the chain's reference partition")
    with span("block_chain.align"):
        responsibilities = ffbm.estimate_responsibilities(
            block_res.samples, block_res.reference, cfg.num_blocks)

    with span("graph.split"):
        split = ffbm.split_vertices(net.num_vertices, cfg.train_fraction,
                                    ffbm.stream_seed_sequence(cfg.seed, "split", rep))
    features = net.features.astype(np.float64)
    with span("softmax.context"):
        ctx = ffbm.ObjectiveContext(features[split.train], responsibilities[split.train], cfg.sigma)
    weight_cfg = ffbm.WeightChainConfig(
        iterations=cfg.theta_iters, burn_in=cfg.theta_burn_in, thinning=cfg.theta_thinning,
        sigma=cfg.sigma, step_scale=cfg.step_scale,
        seed=ffbm.stream_seed_sequence(cfg.seed, "weight-chain", rep))
    with span("mala.chain"):
        weight_res = ffbm.run_weight_chain(ctx, weight_cfg)

    with span("analysis.metrics"):
        retained_s = block_res.s_trace[block_res.retained]
        report = ffbm.EvaluationReport(
            mean_dl=ffbm.mean_description_length(retained_s, net.num_vertices, net.num_edges,
                                                 cfg.num_blocks),
            loss_train=ffbm.cross_entropy_loss(weight_res.samples, responsibilities, features, split.train),
            loss_test=ffbm.cross_entropy_loss(weight_res.samples, responsibilities, features, split.test),
            accuracy_train=ffbm.block_accuracy(weight_res.samples, responsibilities, features,
                                               split.train).tolist(),
            accuracy_test=ffbm.block_accuracy(weight_res.samples, responsibilities, features,
                                              split.test).tolist(),
            acceptance_ratio=weight_res.acceptance_ratio,
            mean_objective=weight_res.mean_objective,
        )

    return report, {"block": block_res, "weight": weight_res, "ctx": ctx, "split": split,
                    "responsibilities": responsibilities, "features": features}


def _screen_probe(ffbm, tracer, inst, rep, weight_res, responsibilities, split, features, target):
    """Probe of run_repetition's reduce_dim branch: screen, then the reduced chain."""
    cfg = inst.cfg
    with tracer.span("analysis.reduce", probe=True):
        summary = ffbm.summarize_weights(weight_res.samples)
        reduction = ffbm.reduce_dimension(summary, cfg.reduce_multiplier, target)
    reduced_features = features[:, reduction.kept]
    with tracer.span("softmax.context", probe=True):
        ctx = ffbm.ObjectiveContext(reduced_features[split.train], responsibilities[split.train],
                                    cfg.sigma)
    reduced_cfg = ffbm.WeightChainConfig(
        iterations=cfg.reduced_theta_iters, burn_in=cfg.reduced_theta_burn_in,
        thinning=cfg.reduced_theta_thinning, sigma=cfg.sigma, step_scale=cfg.reduced_step_scale,
        seed=ffbm.stream_seed_sequence(cfg.seed, "reduced-weight-chain", rep))
    with tracer.span("mala.reduced_chain", probe=True):
        ffbm.run_weight_chain(ctx, reduced_cfg)


def _call_times(fn, calls: int) -> list:
    """(start, end) readings of time.monotonic() around each call."""
    times = []
    for _ in range(calls):
        start = time.monotonic()
        fn()
        times.append((start, time.monotonic()))
    return times


def task_traced(root, name, seed, spawn_time, clock):
    tracer = Tracer(clock)
    span = tracer.span
    with span("setup"):
        with span("setup.import"):
            ffbm, workloads = _import_ffbm(root)
        batch = workloads.build(name, seed, span=span)
    net = batch[0].net

    # Set-up probes on the first network, before the pipeline so the peak
    # RSS is the generator's.
    if name == "polbooks":
        with span("datagen.generate", probe=True):
            ffbm.generate(workloads.generator_spec(name, seed))
    datagen_peak_rss_mb = _peak_rss_mb()
    with span("graph.build", probe=True):
        ffbm.network_from_edges(net.num_vertices, net.edges, net.features, net.feature_names)
    if name != "polbooks":
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as scratch:
            edges_path = os.path.join(scratch, "edges.txt")
            features_path = os.path.join(scratch, "features.csv")
            ffbm.dataio.write_edge_list(edges_path, net.edges)
            ffbm.dataio.write_features(features_path, net.features, net.feature_names)
            with span("dataio.load", probe=True):
                ffbm.load_network(edges_path, features_path)

    reports, extras = [], []
    for member, inst in enumerate(batch):
        inst_reports = []
        for rep in range(inst.cfg.repetitions):
            with span("pipeline.repetition", member=member, rep=rep):
                report, extra = _traced_repetition(ffbm, tracer, inst, rep)
            inst_reports.append(report)
            extras.append({**extra, "inst": inst})
        with span("pipeline.payload", member=member):
            ffbm.pipeline.experiment_payload(inst.net, inst.cfg, inst_reports)
        reports += inst_reports

    last = extras[-1]
    inst = last["inst"]
    weights = last["weight"].samples[-1]
    obj_grad_calls = _call_times(lambda: ffbm.objective_and_gradient(weights, last["ctx"]), 2000)
    # No workload screens features (reduce_dim), so the screening stage and
    # its second chain are timed once, off the pipeline path, keeping every
    # feature.  A workload that screens would fail the equivalence check
    # until its traced repetition makes these calls itself.
    _screen_probe(ffbm, tracer, inst, inst.cfg.repetitions - 1, last["weight"],
                  last["responsibilities"], last["split"], last["features"], inst.net.num_features)
    clock.stop()

    pipeline_s = (tracer.total("pipeline.repetition") + tracer.total("pipeline.payload")
                  - tracer.total("block_chain.init"))
    obj_grad_us = 1e6 * float(np.median([clock.ref_elapsed(a, b) for a, b in obj_grad_calls]))
    init_s = tracer.total("block_chain.init")
    run_s = tracer.total("block_chain.run")
    sweep_s = run_s - init_s
    chain_s = tracer.total("mala.chain")
    theta_iters = sum(e["inst"].cfg.theta_iters for e in extras)
    proposals = sum(e["inst"].cfg.block_iters * e["inst"].net.num_vertices for e in extras)
    accepted = sum(int(e["weight"].accepted.sum()) for e in extras)
    layers = {
        "block_chain.init_s": init_s,
        "block_chain.run_s": run_s,
        "block_chain.sweep_s": sweep_s,
        "block_chain.proposals_per_s": proposals / sweep_s,
        "block_chain.align_s": tracer.total("block_chain.align"),
        "block_chain.s_ess": sum(
            ess.effective_sample_size(e["block"].s_trace[e["block"].retained]) for e in extras),
        "block_chain.planted_overlap": float(np.mean([
            workloads.overlap(e["responsibilities"].argmax(axis=1), e["inst"].planted,
                              e["inst"].cfg.num_blocks)
            for e in extras])),
        "mala.chain_s": chain_s,
        "mala.us_per_iter": 1e6 * chain_s / theta_iters,
        "mala.acceptance": accepted / theta_iters,
        "mala.min_ess": sum(min_weight_ess(e["weight"].samples) for e in extras),
        "softmax.obj_grad_us": obj_grad_us,
        "mala.reduced_chain_s": tracer.total("mala.reduced_chain"),
        "analysis.metrics_s": tracer.total("analysis.metrics"),
        "analysis.reduce_s": tracer.total("analysis.reduce"),
        "datagen.generate_s": tracer.total("datagen.generate"),
        "datagen.peak_rss_mb": datagen_peak_rss_mb,
        "graph.build_s": tracer.total("graph.build"),
        "dataio.load_s": tracer.total("dataio.load"),
    }
    return {"layers": layers, "pipeline_s": pipeline_s, "spans": tracer.export(spawn_time),
            "values": [_compared_values(r) for r in reports]}


def task_dl_probe(root, name, seed, spawn_time, clock):
    ffbm, workloads = _import_ffbm(root)
    inst = workloads.build(name, seed)[0]
    state = ffbm.BlockState(inst.net, inst.planted, inst.cfg.num_blocks)
    rss_before = _peak_rss_mb()
    t0 = time.monotonic()
    cold = ffbm.description_length(inst.net, state)
    t1 = time.monotonic()
    rss_after = _peak_rss_mb()
    warm = ffbm.description_length(inst.net, state)
    t2 = time.monotonic()
    clock.stop()
    if cold != warm:
        raise AssertionError(f"cold and warm description lengths differ: {cold!r} != {warm!r}")
    return {"dcsbm.dl_cold_s": clock.ref_elapsed(t0, t1), "dcsbm.dl_warm_s": clock.ref_elapsed(t1, t2),
            "tables.fill_rss_mb": rss_after - rss_before}


TASKS = {"setup": task_setup, "pass": task_pass, "traced": task_traced, "dl-probe": task_dl_probe}


def main(argv) -> int:
    root, task, name, seed, spawn_time = argv
    clock = SpeedClock()
    clock.start()
    result = TASKS[task](root, name, int(seed), float(spawn_time), clock)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
