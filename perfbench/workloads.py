"""Benchmark workloads: each builds its network and config from the workload seed.

Only the generated inputs reach ffbm.  The config sets the keys that
describe the experiment (num_blocks, block_iters, step_scale, repetitions,
seed) and leaves every other key at its default.

polbooks    the bundled network with the default config: the paper's
            reference experiment.  Cost splits between block-chain sweeps
            and per-iteration MALA overhead on 3 x 3 weights; the
            partition-count table stays tiny.
planted-500x5
            a batch of five planted models, each N=500, B=4, mean degree 8,
            one repetition each: the greedy initialiser takes the largest
            share, MALA works on 350 x 4 matmuls rather than being bound by
            loop overhead, and the generator shows in set-up.

The batch stands in for one N=3000 instance, which shows scale better but
cannot be measured steadily here.  The initialiser's cost depends on the
network and, at N=3000, on the run seed: over twelve networks it varied
with a CV of 0.18 at N=1000 and 0.14 at N=500, and one N=3000 repetition
took from 13 to 19 reference seconds by seed, so ten seeds spread past any
allowed bound.  The batch's five networks are therefore fixed (see
NETWORK_SEED) and the workload seed seeds only the runs; five runs average
the rest out in about the time of one N=3000 repetition.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

import ffbm

# Affinity ratio between the diagonal and off-diagonal block propensities.
AFFINITY_RATIO = 10.0

# Criterion-1 reproduction bounds of the paper's polbooks experiment:
# (metric, target, half-width) on the means over repetitions.
POLBOOKS_BOUNDS = (
    ("mean_description_length", 2.250, 0.03),
    ("loss_train", 0.563, 0.13),
    ("loss_test", 0.595, 0.27),
)


@dataclass
class Instance:
    """Inputs of one experiment of a workload and its planted partition.

    planted: the planted memberships of a generated network; for polbooks
        the political-affiliation labels.  Used by the description-length
        probe and the reported overlap, not by a check: the greedy
        initialiser does not always find it (over 110 repetitions of the
        planted-500x5 batch the overlap ranged from 0.33 to 0.97, where
        chance is 0.25).
    """

    name: str
    net: ffbm.LabelledNetwork
    cfg: ffbm.RunConfig
    planted: np.ndarray


def planted_affinity(num_vertices: int, num_blocks: int, mean_degree: float) -> np.ndarray:
    """Block propensities giving the mean degree for equal-sized blocks."""
    off = mean_degree * num_blocks / (num_vertices * (AFFINITY_RATIO + num_blocks - 1))
    affinity = np.full((num_blocks, num_blocks), off)
    np.fill_diagonal(affinity, AFFINITY_RATIO * off)
    return affinity


def one_hot_features(rng, num_vertices: int, num_blocks: int) -> np.ndarray:
    """One flag per vertex, uniformly among num_blocks columns."""
    feats = np.zeros((num_vertices, num_blocks), dtype=np.int8)
    feats[np.arange(num_vertices), rng.integers(0, num_blocks, num_vertices)] = 1
    return feats


def _planted_weights(num_blocks: int, num_features: int, strength: float) -> np.ndarray:
    weights = np.zeros((num_blocks, num_features))
    np.fill_diagonal(weights[:, :num_blocks], strength)
    return weights


BATCH = {"polbooks": 1, "planted-500x5": 5}

# Seed of the generated networks.  The greedy initialiser's cost depends on
# the network (CV 0.14 over twelve N=500 networks), so networks drawn from
# the workload seed made ten runs spread past the bound.
NETWORK_SEED = 2105_13762


def _seeds(seed: int, member: int):
    """(generator seed, master run seed) of one batch member.

    The generator seed is fixed, so every workload seed runs on the same
    networks, as polbooks runs on its bundled one; the workload seed seeds
    the runs.
    """
    gen_seed = np.random.SeedSequence(NETWORK_SEED).generate_state(member + 1)[member]
    run_seed = np.random.SeedSequence(int(seed)).generate_state(member + 1)[member]
    return int(gen_seed), int(run_seed)


def generator_spec(name: str, seed: int, member: int = 0) -> ffbm.GeneratorSpec:
    """The planted-model spec of a batch member (polbooks: a model of its size)."""
    gen_seed, _ = _seeds(seed, member)
    rng = np.random.default_rng(gen_seed)
    if name == "planted-500x5":
        n, b = 500, 4
        return ffbm.GeneratorSpec(
            num_vertices=n, weights=_planted_weights(b, b, 3.0),
            affinity=planted_affinity(n, b, 8.0), feature_probs=np.full(b, 0.5),
            seed=gen_seed)
    if name == "polbooks":
        n, b = 105, 3
        return ffbm.GeneratorSpec(
            num_vertices=n, weights=_planted_weights(b, b, 5.0),
            affinity=planted_affinity(n, b, 2 * 441 / 105), features=one_hot_features(rng, n, b),
            seed=gen_seed)
    raise ValueError(f"unknown workload {name!r}")


def run_config(name: str, seed: int, member: int = 0) -> ffbm.RunConfig:
    _, run_seed = _seeds(seed, member)
    if name == "polbooks":
        return ffbm.RunConfig(seed=run_seed)
    if name == "planted-500x5":
        return ffbm.RunConfig(num_blocks=4, block_iters=50, step_scale=0.5,
                              repetitions=1, seed=run_seed)
    raise ValueError(f"unknown workload {name!r}")


def build(name: str, seed: int, span=None) -> list:
    """Make the workload's networks: what a user's runs do before inference.

    span, if given, is a context-manager factory wrapped around each call
    that reads or generates a network.
    """
    if name not in BATCH:
        raise ValueError(f"unknown workload {name!r}")
    span = span or (lambda _name: contextlib.nullcontext())
    batch = []
    for member in range(BATCH[name]):
        cfg = run_config(name, seed, member)
        if name == "polbooks":
            with span("dataio.load"):
                net = ffbm.load_polbooks()
            planted = net.features.argmax(axis=1)
        else:
            spec = generator_spec(name, seed, member)
            with span("datagen.generate"):
                net, truth = ffbm.generate(spec)
            planted = np.asarray(truth["memberships"])
        batch.append(Instance(name=name, net=net, cfg=cfg, planted=planted))
    return batch


def overlap(partition, planted, num_blocks: int) -> float:
    """Fraction of vertices in the planted block after optimal relabelling."""
    aligned = ffbm.align_labels(np.asarray(partition), np.asarray(planted), num_blocks)
    return float((aligned == planted).mean())
