import builtins
import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import ffbm
from ffbm import (RunConfig, analysis, build_config, cli, config, graph, load_network, load_polbooks, mala,
                  mdl_partition, pipeline)
from ffbm.cli import main
from ffbm.dataio import DataFormatError

from conftest import objective_failing_at


@pytest.fixture
def synthetic_dir(tmp_path):
    """A small generated instance plus a config pointing at it."""
    inst = tmp_path / "inst"
    code = main(["generate", "--num-vertices", "60", "--num-blocks", "2",
                 "--affinity-diag", "0.4", "--affinity-off", "0.02",
                 "--seed", "5", "--out-dir", str(inst)])
    assert code == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"edges = {inst / 'edges.txt'}\n"
        f"features = {inst / 'features.csv'}\n"
        "num_blocks = 2\n"
        "block_iters = 60\n"
        "theta_iters = 200\n"
        "theta_burn_in = 0.4\n"
        "theta_thinning = 10\n"
        "step_scale = 0.5\n"
        "repetitions = 2\n"
    )
    return inst, cfg


def test_generate_outputs_load(synthetic_dir):
    inst, _ = synthetic_dir
    net = load_network(inst / "edges.txt", inst / "features.csv")
    assert net.num_vertices == 60
    truth = json.loads((inst / "truth.json").read_text())
    assert len(truth["memberships"]) == 60


def test_sample_blocks_writes_outputs(synthetic_dir, tmp_path):
    _, cfg = synthetic_dir
    out = tmp_path / "blocks"
    assert main(["sample-blocks", "--config", str(cfg), "--seed", "3",
                 "--out-dir", str(out)]) == 0
    for name in ("block_samples.csv", "s_trace.csv", "responsibilities.csv"):
        assert (out / name).is_file()
    header = (out / "block_samples.csv").read_text().splitlines()[0]
    assert header.split(",")[:2] == ["t", "v0"]


# SHA-256 of the partition stage's outputs on polbooks at the default
# settings and master seed 1.  They use no BLAS, so they pin every bit of
# the greedy initialiser, the partition chain and the alignment.  Recorded
# when the multilevel agglomerative run became the greedy initialiser.
_POLBOOKS_PARTITION_STAGE = {
    "block_samples.csv": "5772391edc486b5f2f887372bc332e45ee9a554d1a6c1aa1892fdbd09f2f551b",
    "s_trace.csv": "2d66a5d276ec258dfe102b8ed2f6a4822493b1e0b99d65e2dc6e3fcc64f00362",
    "responsibilities.csv": "ae8fd5f1adfa9cfafc403b49db4d4a34d2720679f5ac6b76ea1cc7c8bbc540b0",
}


def test_sample_blocks_pinned_polbooks(tmp_path):
    assert main(["sample-blocks", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in _POLBOOKS_PARTITION_STAGE}
    assert digests == _POLBOOKS_PARTITION_STAGE


def test_sample_theta_then_reduce(synthetic_dir, tmp_path):
    _, cfg = synthetic_dir
    out = tmp_path / "theta"
    assert main(["sample-theta", "--config", str(cfg), "--seed", "3",
                 "--out-dir", str(out)]) == 0
    assert (out / "theta_samples.csv").is_file()
    assert (out / "u_trace.csv").is_file()
    summary = json.loads((out / "theta_summary.json").read_text())
    assert 0.0 < summary["acceptance_ratio"] <= 1.0

    assert main(["reduce", "--config", str(cfg), "--out-dir", str(out),
                 "--set", "reduce_dim=1"]) == 0
    reduction = json.loads((out / "reduction.json").read_text())
    assert len(reduction["kept_features"]) == 1
    assert (out / "reduction.csv").is_file()


def test_reduce_rejects_oversized_target(synthetic_dir, tmp_path):
    _, cfg = synthetic_dir
    out = tmp_path / "theta"
    main(["sample-theta", "--config", str(cfg), "--seed", "3", "--out-dir", str(out)])
    code = main(["reduce", "--config", str(cfg), "--out-dir", str(out),
                 "--set", "reduce_dim=99"])
    assert code == 2


@pytest.mark.parametrize("data", ["missing", "folder", "malformed"])
def test_reduce_reads_only_its_sample_file(synthetic_dir, tmp_path, data):
    # reduce beside the data, and from a directory holding only
    # theta_samples.csv with data paths that cannot be read: same bytes.
    _, cfg = synthetic_dir
    beside, alone = tmp_path / "beside", tmp_path / "alone"
    assert main(["sample-theta", "--config", str(cfg), "--seed", "3", "--out-dir", str(beside)]) == 0
    alone.mkdir()
    (alone / "theta_samples.csv").write_bytes((beside / "theta_samples.csv").read_bytes())
    bad = {"missing": tmp_path / "nonexistent", "folder": alone,
           "malformed": beside / "theta_summary.json"}[data]
    assert main(["reduce", "--config", str(cfg), "--set", "reduce_dim=1",
                 "--out-dir", str(beside)]) == 0
    assert main(["reduce", "--config", str(cfg), "--set", "reduce_dim=1",
                 "--set", f"edges={bad}", "--set", f"features={bad}", "--out-dir", str(alone)]) == 0
    for name in ("reduction.csv", "reduction.json"):
        assert (alone / name).read_bytes() == (beside / name).read_bytes()


def test_reduce_of_a_malformed_sample_file_exits_two(tmp_path, capsys):
    (tmp_path / "theta_samples.csv").write_text("t,0.a,1.a\n0,0.5,x\n")
    assert main(["reduce", "--set", "reduce_dim=1", "--out-dir", str(tmp_path)]) == 2
    assert "theta_samples.csv:2: row t=0 has a weight that is not a finite number" in \
        capsys.readouterr().err


def test_reduce_without_samples_fails(synthetic_dir, tmp_path):
    _, cfg = synthetic_dir
    code = main(["reduce", "--config", str(cfg), "--out-dir", str(tmp_path / "empty"),
                 "--set", "reduce_dim=1"])
    assert code == 2


def test_run_is_byte_deterministic(synthetic_dir, tmp_path):
    _, cfg = synthetic_dir
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["run", "--config", str(cfg), "--seed", "7",
                     "--out-dir", str(out)]) == 0
    report_a = (out_a / "report.json").read_bytes()
    report_b = (out_b / "report.json").read_bytes()
    assert report_a == report_b
    sample_a = (out_a / "rep000" / "theta_samples.csv").read_bytes()
    sample_b = (out_b / "rep000" / "theta_samples.csv").read_bytes()
    assert sample_a == sample_b


def test_report_names_its_input_files_by_digest(synthetic_dir, tmp_path):
    # The same files under two directories give two paths but one digest
    # each; the bundled network gives neither.
    inst, _ = synthetic_dir
    settings = ["--seed", "2", "--set", "repetitions=1", "--set", "block_iters=20",
                "--set", "theta_iters=100"]
    payloads = []
    for name in ("a", "b"):
        data = tmp_path / name
        data.mkdir()
        for file in ("edges.txt", "features.csv"):
            (data / file).write_bytes((inst / file).read_bytes())
        assert main(["report", *settings, "--set", f"edges={data / 'edges.txt'}",
                     "--set", f"features={data / 'features.csv'}", "--set", "num_blocks=2",
                     "--out-dir", str(tmp_path / f"out_{name}")]) == 0
        payloads.append(json.loads((tmp_path / f"out_{name}" / "report.json").read_text()))
    a, b = payloads
    assert a["config"]["edges"] != b["config"]["edges"]
    assert a["input_sha256"] == b["input_sha256"] == {
        file.split(".")[0]: hashlib.sha256((inst / file).read_bytes()).hexdigest()
        for file in ("edges.txt", "features.csv")}

    assert main(["report", *settings, "--out-dir", str(tmp_path / "bundled")]) == 0
    assert "input_sha256" not in json.loads((tmp_path / "bundled" / "report.json").read_text())


def test_report_reads_each_input_file_once(synthetic_dir, tmp_path, monkeypatch):
    # input_sha256 hashes the bytes that load_network read; the payload reads
    # no file of its own.  Every open of an input file is counted, whichever
    # module makes it.
    inst, _ = synthetic_dir
    reads = Counter()
    real_open = builtins.open

    def counted(file, mode="r", *args, **kwargs):
        if Path(str(file)).parent == inst and "r" in mode:
            reads[Path(str(file)).name] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    assert main(["report", "--seed", "2", "--set", "repetitions=1", "--set", "block_iters=20",
                 "--set", "theta_iters=100", "--set", f"edges={inst / 'edges.txt'}",
                 "--set", f"features={inst / 'features.csv'}", "--set", "num_blocks=2",
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert reads == {"edges.txt": 1, "features.csv": 1}
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["input_sha256"] == {
        file.split(".")[0]: hashlib.sha256((inst / file).read_bytes()).hexdigest()
        for file in ("edges.txt", "features.csv")}


def test_report_structure(synthetic_dir, tmp_path):
    _, cfg = synthetic_dir
    out = tmp_path / "rep"
    assert main(["report", "--config", str(cfg), "--seed", "2",
                 "--out-dir", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["dataset"]["num_vertices"] == 60
    assert len(payload["per_repetition"]) == 2
    for key in ("mean_description_length", "loss_train", "loss_test"):
        assert key in payload["mean"]
        assert key in payload["std"]
    assert not (out / "rep000").exists()  # report does not write artifacts


def test_report_with_reduction(synthetic_dir, tmp_path):
    _, cfg = synthetic_dir
    out = tmp_path / "red"
    assert main(["report", "--config", str(cfg), "--seed", "2", "--out-dir", str(out),
                 "--set", "reduce_dim=1", "--set", "reduced_theta_iters=100"]) == 0
    payload = json.loads((out / "report.json").read_text())
    rep = payload["per_repetition"][0]
    assert len(rep["kept_features"]) == 1
    assert rep["reduced_loss_train"] is not None
    assert payload["mean"]["cutoff"] is not None


def test_parallel_jobs_match_sequential(synthetic_dir, tmp_path):
    # The worker processes ship each repetition's artifacts back; the files
    # written from them equal a serial run's.
    _, cfg = synthetic_dir
    seq, par = tmp_path / "seq", tmp_path / "par"
    common = ["run", "--config", str(cfg), "--seed", "9", "--set", "reduce_dim=1",
              "--set", "reduced_theta_iters=100"]
    assert main([*common, "--out-dir", str(seq)]) == 0
    assert main([*common, "--out-dir", str(par), "--jobs", "2"]) == 0
    files = sorted(str(p.relative_to(seq)) for p in seq.rglob("*") if p.is_file())
    assert files == sorted(str(p.relative_to(par)) for p in par.rglob("*") if p.is_file())
    assert "rep001/reduction.csv" in files
    for name in files:
        assert (seq / name).read_bytes() == (par / name).read_bytes(), name


def test_jobs_cut_the_repetitions_into_contiguous_runs():
    # Three workers take repetitions 0, 1-2 and 3-4 and run each run's weight
    # chains as one lockstep stack; reports and artifacts come back in
    # repetition order and equal one serial stack of five.
    cfg = RunConfig(repetitions=5, block_iters=20, init_restarts=1, theta_iters=150, seed=6)
    net = load_polbooks()
    serial, serial_arts = pipeline.run_experiment(net, cfg, keep_artifacts=True)
    parallel, parallel_arts = pipeline.run_experiment(net, cfg, jobs=3, keep_artifacts=True)
    dump = lambda reports: [json.dumps(r.to_dict(), sort_keys=True) for r in reports]
    assert dump(parallel) == dump(serial)
    assert len(parallel_arts) == 5
    for a, b in zip(serial_arts, parallel_arts):
        assert a.weight_result.u_trace.tobytes() == b.weight_result.u_trace.tobytes()
        assert a.block_result.s_trace.tobytes() == b.block_result.s_trace.tobytes()
    # More workers than repetitions: one repetition each.
    more, _ = pipeline.run_experiment(net, dataclasses.replace(cfg, repetitions=2), jobs=4)
    assert dump(more) == dump(serial[:2])


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_experiment_refuses_fewer_than_one_job(jobs):
    # Too few workers would otherwise run no repetition and return no report.
    cfg = RunConfig(repetitions=2, block_iters=20, init_restarts=1, theta_iters=150, seed=6)
    with pytest.raises(ValueError, match="jobs must be an integer of at least 1"):
        pipeline.run_experiment(load_polbooks(), cfg, jobs=jobs)


def test_usage_errors_exit_one():
    assert main(["nosuchcommand"]) == 1
    assert main([]) == 1
    # --jobs belongs to the commands that run repetitions, and counts processes.
    for command in ("sample-blocks", "sample-theta", "reduce"):
        assert main([command, "--jobs", "2"]) == 1
    for jobs in ("0", "-1", "two"):
        assert main(["report", "--jobs", jobs]) == 1


def test_numeric_failure_exits_three(monkeypatch, tmp_path):
    import ffbm.cli as cli_mod

    def explode(*args, **kwargs):
        raise ArithmeticError("objective became non-finite during weight sampling")

    monkeypatch.setattr(cli_mod, "run_experiment", explode)
    assert main(["report", "--out-dir", str(tmp_path)]) == 3


def test_missing_dataset_exits_two(tmp_path):
    code = main(["report", "--out-dir", str(tmp_path),
                 "--set", "edges=/nonexistent/e.txt",
                 "--set", "features=/nonexistent/f.csv"])
    assert code == 2


def test_unknown_config_key_exits_two(tmp_path):
    code = main(["report", "--out-dir", str(tmp_path), "--set", "bogus_key=1"])
    assert code == 2


def test_json_config(tmp_path, synthetic_dir):
    inst, _ = synthetic_dir
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "edges": str(inst / "edges.txt"),
        "features": str(inst / "features.csv"),
        "num_blocks": 2,
        "block_iters": 40,
        "theta_iters": 100,
        "repetitions": 1,
    }))
    out = tmp_path / "json_out"
    assert main(["report", "--config", str(cfg), "--out-dir", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["num_blocks"] == 2


def test_sample_blocks_needs_no_features(synthetic_dir, tmp_path):
    # Only the weight stage needs a feature matrix.
    inst, _ = synthetic_dir
    common = ["--set", f"edges={inst / 'edges.txt'}", "--set", "num_blocks=2",
              "--set", "block_iters=20"]
    out = tmp_path / "blocks"
    assert main(["sample-blocks", *common, "--out-dir", str(out)]) == 0
    assert (out / "responsibilities.csv").is_file()
    assert main(["sample-theta", *common, "--out-dir", str(tmp_path / "theta")]) == 2


@pytest.mark.parametrize("entry", [{"num_blocks": 2.9}, {"repetitions": True}, "num_blocks=2.9",
                                   "repetitions=2.5e0"])
def test_json_config_rejects_lossy_integers(tmp_path, capsys, entry):
    # Integer keys follow one rule in every form: a JSON number, or text in
    # a key = value file or a --set, is taken if it is integral and refused
    # otherwise.  A text entry is given both ways.
    cfg, lines = tmp_path / "cfg.json", tmp_path / "run.cfg"
    if isinstance(entry, dict):
        cfg.write_text(json.dumps(entry))
        forms = [["--config", str(cfg)]]
    else:
        lines.write_text(entry.replace("=", " = ") + "\n")
        forms = [["--config", str(lines)], ["--set", entry]]
    for args in forms:
        assert main(["report", *args, "--out-dir", str(tmp_path)]) == 2
        assert "must be an integer" in capsys.readouterr().err
    cfg.write_text(json.dumps({"num_blocks": 3.0}))
    assert build_config(cfg).num_blocks == 3
    lines.write_text("num_blocks = 3.0\nrepetitions = 1e1\n")
    text_config = build_config(lines)
    assert (text_config.num_blocks, text_config.repetitions) == (3, 10)
    assert build_config(overrides=["num_blocks=3.0"]).num_blocks == 3


@pytest.mark.parametrize("entry", [{"sigma": True}, {"train_fraction": False}])
def test_json_config_rejects_booleans_for_floats(tmp_path, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    with pytest.raises(DataFormatError):
        build_config(cfg)
    assert main(["report", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["run", "report", "sample-theta"])
def test_featureless_input_fails_before_any_stage(synthetic_dir, tmp_path, monkeypatch, command):
    import ffbm.pipeline as pipeline_mod

    def never(*args, **kwargs):
        raise AssertionError("the partition chain ran on input the weight stage rejects")

    monkeypatch.setattr(pipeline_mod, "run_block_chain", never)
    inst, _ = synthetic_dir
    code = main([command, "--set", f"edges={inst / 'edges.txt'}", "--set", "num_blocks=2",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("setting", ["train_fraction=1.5", "sigma=-1", "step_scale=0",
                                     "theta_thinning=0", "theta_burn_in=1.2", "reduce_dim=7",
                                     "proposal_smoothing=nan", "sigma=nan", "step_scale=inf",
                                     "reduced_step_scale=inf", "reduce_multiplier=nan",
                                     "reduce_multiplier=0", "num_blocks=none", "num_blocks=0",
                                     "seed=-1", "sigma=1e200", "sigma=1e-170",
                                     "step_scale=1e300", "step_scale=1e308",
                                     "reduce_dim=1 reduced_step_scale=1e300"])
def test_bad_config_values_fail_before_any_stage(tmp_path, monkeypatch, setting):
    import ffbm.pipeline as pipeline_mod

    def never(*args, **kwargs):
        raise AssertionError("the partition chain ran with a configuration a later stage rejects")

    monkeypatch.setattr(pipeline_mod, "run_block_chain", never)
    overrides = [arg for item in setting.split() for arg in ("--set", item)]
    code = main(["run", "--set", "repetitions=1", *overrides, "--out-dir", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("command", ["report", "sample-theta"])
def test_one_vertex_network_fails_before_any_stage(tmp_path, monkeypatch, capsys, command):
    # The weight stage splits the vertices into train and test sides.
    import ffbm.pipeline as pipeline_mod

    def never(*args, **kwargs):
        raise AssertionError("the partition chain ran on a network the weight stage cannot split")

    monkeypatch.setattr(pipeline_mod, "run_block_chain", never)
    (tmp_path / "edges.txt").write_text("0 0\n")
    (tmp_path / "features.csv").write_text("vertex,flag\n0,1\n")
    code = main([command, "--set", f"edges={tmp_path / 'edges.txt'}",
                 "--set", f"features={tmp_path / 'features.csv'}", "--set", "num_blocks=1",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "at least 2 vertices, got 1" in capsys.readouterr().err


def test_run_repetition_checks_the_preconditions_before_any_stage(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the partition chain ran on input a later stage rejects")

    monkeypatch.setattr(pipeline, "run_block_chain", never)
    with pytest.raises(ValueError, match=r"target dimension 5 outside \[1, 3\]"):
        pipeline.run_repetition(load_polbooks(), RunConfig(reduce_dim=5), 0)
    featureless = ffbm.network_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(DataFormatError, match="feature matrix"):
        pipeline.run_repetition(featureless, RunConfig(num_blocks=2), 0)


def test_chain_settings_are_checked_when_the_config_is_built():
    with pytest.raises(DataFormatError, match="block_burn_in") as block:
        build_config(overrides=["block_burn_in=1.5"])
    with pytest.raises(DataFormatError, match="theta_burn_in") as theta:
        build_config(overrides=["theta_burn_in=1.5"])
    assert "theta" not in str(block.value) and "block" not in str(theta.value)
    with pytest.raises(DataFormatError, match="reduced_theta_burn_in"):
        build_config(overrides=["reduced_theta_burn_in=1.5", "reduce_dim=1"])
    with pytest.raises(DataFormatError, match="init_restarts"):
        build_config(overrides=["init_restarts=0"])


@pytest.mark.parametrize("override, key", [("seed=-1", "seed"), ("num_blocks=0", "num_blocks")])
def test_seed_and_block_count_are_checked_when_the_config_is_built(override, key):
    with pytest.raises(DataFormatError, match=key):
        build_config(overrides=[override])


def test_non_integer_seeds_are_refused():
    # A seed or repetition is never truncated: 1.5 would run as 1 and be
    # recorded as 1.5.  Integer types other than int read as their value.
    for seed in (1.5, 2.0, "1"):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            RunConfig(seed=seed)
    assert RunConfig(seed=np.int64(3)).seed == 3
    for stream in (ffbm.stream_seed_sequence, ffbm.stream_seed_int):
        for master, repetition in ((1.5, 0), (1, 0.9), (1, 1.0)):
            with pytest.raises(ValueError):
                stream(master, "split", repetition)
    assert ffbm.stream_seed_int(np.int64(1), "split", np.uint8(2)) == ffbm.stream_seed_int(1, "split", 2)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_run_config_rejects_non_finite_floats(name, value):
    with pytest.raises(ValueError, match=name):
        RunConfig(**{name: value})


def _integer_settings():
    """(entry point, setting, minimum) params: each call sets one integer setting."""
    net = ffbm.network_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    spec = dict(weights=[[0.0]], affinity=[[0.1]], feature_probs=[0.5])
    least = {"seed": 0}
    cases = [(f"RunConfig.{key}", lambda v, k=key: RunConfig(**{k: v}), key, least.get(key, 1))
             for key in config._INT_FIELDS]
    cases += [(f"BlockChainConfig.{key}", lambda v, k=key: ffbm.BlockChainConfig(**{k: v}), key,
               least.get(key, 1)) for key in ("iterations", "thinning", "init_restarts", "seed")]
    cases += [(f"WeightChainConfig.{key}", lambda v, k=key: ffbm.WeightChainConfig(**{k: v}), key, 1)
              for key in ("iterations", "thinning")]
    cases += [
        ("GeneratorSpec.num_vertices", lambda v: ffbm.GeneratorSpec(num_vertices=v, **spec),
         "num_vertices", 0),
        ("GeneratorSpec.seed", lambda v: ffbm.GeneratorSpec(num_vertices=3, seed=v, **spec), "seed", 0),
        ("mdl_partition.num_blocks", lambda v: mdl_partition(net, v, None), "num_blocks", 1),
        ("mdl_partition.restarts", lambda v: mdl_partition(net, 2, None, restarts=v), "restarts", 1),
        ("run_experiment.jobs", lambda v: pipeline.run_experiment(net, RunConfig(), jobs=v), "jobs", 1),
        ("split_vertices.num_vertices", lambda v: ffbm.split_vertices(v, 0.5, 0), "num_vertices", 2),
        ("LabelledNetwork.num_vertices", lambda v: ffbm.LabelledNetwork(v, (), np.zeros((2, 0)), ()),
         "num_vertices", 0),
        ("network_from_edges.num_vertices", lambda v: ffbm.network_from_edges(v, []), "num_vertices", 0),
        ("stream_seed_sequence.master_seed", lambda v: ffbm.stream_seed_sequence(v, "split"),
         "master_seed", 0),
        ("stream_seed_sequence.repetition", lambda v: ffbm.stream_seed_sequence(0, "split", v),
         "repetition", 0),
        ("step_size.iteration", lambda v: ffbm.step_size(v, ffbm.WeightChainConfig(), 10), "iteration", 0),
        ("generate.num_blocks", lambda v: _generate(num_blocks=v), "--num-blocks", 1),
        ("generate.num_features", lambda v: _generate(num_features=v), "--num-features", 0),
    ]
    # Block and vertex counts, vertex and block indices, and partition-count arguments.
    state, labels = ffbm.BlockState(net, [0, 0, 1, 1], 2), [0, 1, 1, 0]
    summary = ffbm.summarize_weights(np.zeros((2, 2, 3)))
    cases += [
        ("reduce_dimension.target_dim", lambda v: ffbm.reduce_dimension(summary, 1.0, v), "target_dim", 1),
        ("step_size.num_points", lambda v: ffbm.step_size(0, ffbm.WeightChainConfig(), v), "num_points", 1),
        ("mean_description_length.num_vertices", lambda v: ffbm.mean_description_length([1.0], v, 2, 2),
         "num_vertices", 1),
        ("mean_description_length.num_edges", lambda v: ffbm.mean_description_length([1.0], 3, v, 2),
         "num_edges", 0),
        ("mean_description_length.num_blocks", lambda v: ffbm.mean_description_length([1.0], 3, 2, v),
         "num_blocks", 1),
        ("log_partition_given_features.num_vertices", lambda v: ffbm.log_partition_given_features(v, 2),
         "num_vertices", 0),
        ("log_partition_given_features.num_blocks", lambda v: ffbm.log_partition_given_features(3, v),
         "num_blocks", 1),
        ("log_prior_edge_matrix.num_blocks", lambda v: ffbm.log_prior_edge_matrix(v, 3), "num_blocks", 1),
        ("log_prior_edge_matrix.num_edges", lambda v: ffbm.log_prior_edge_matrix(2, v), "num_edges", 0),
        ("BlockState.B", lambda v: ffbm.BlockState(net, [0] * 4, v), "B", 1),
        ("align_labels.num_blocks", lambda v: ffbm.align_labels(labels, labels, v), "num_blocks", 1),
        ("estimate_responsibilities.num_blocks",
         lambda v: ffbm.estimate_responsibilities([labels], labels, v), "num_blocks", 1),
        ("count_partitions.m", lambda v: ffbm.count_partitions(v, 2), "m", 0),
        ("count_partitions.n", lambda v: ffbm.count_partitions(3, v), "n", 0),
    ]
    cases += [(f"{move.__name__}.{name}", lambda v, m=move, k=name: m(state, **{"i": 0, "target": 0, k: v}),
               name, 0) for move in (ffbm.delta_description_length, ffbm.apply_move) for name in ("i", "target")]
    return [pytest.param(call, name, minimum, id=case) for case, call, name, minimum in cases]


def _generate(**flags):
    """ffbm generate's command with the given flags set past its parser."""
    args = cli._build_parser().parse_args(["generate", "--num-vertices", "5"])
    vars(args).update(flags)
    return cli._cmd_generate(args)


@pytest.mark.parametrize("call, name, minimum", _integer_settings())
@pytest.mark.parametrize("bad", [10.5, 2.0, "3", True, "below"])
def test_every_integer_setting_meets_one_rule(call, name, minimum, bad):
    # An integer setting is what operator.index takes, bool aside; a float,
    # however integral, text and a bool are refused at construction or at
    # entry, as is a value below the setting's minimum.
    with pytest.raises(ValueError, match=f"{name} must be"):
        call(minimum - 1 if bad == "below" else bad)


def _integer_arrays():
    """(entry point, bad value) params: call(value) hands the entry point one
    integer array, a list whose entry named in the message (entry) is value;
    the array's rule takes minimum and bound."""
    rng = np.random.default_rng
    cases = [
        ("sample_microcanonical_graph.degrees", lambda v: ffbm.sample_microcanonical_graph(
            [0, 0, 1, 1], [[2, 0], [0, 2]], [1, 1, v, 1], rng(0)), "degrees[2]", 0, None),
        ("sample_microcanonical_graph.edge_counts", lambda v: ffbm.sample_microcanonical_graph(
            [0, 0, 1, 1], [[2, 0], [v, 2]], [1, 1, 1, 1], rng(0)), "edge counts[1, 0]", 0, None),
        ("network_from_edges.endpoints", lambda v: ffbm.network_from_edges(3, [(0, 1), (1, v)]),
         "edge endpoints[1, 1]", 0, 3),
        ("network_from_edges.multiplicities", lambda v: ffbm.network_from_edges(3, [(0, 1, 1), (1, 2, v)]),
         "edge multiplicities[1]", 1, None),
    ]
    return [pytest.param(call, entry, value, id=f"{case}-{label}")
            for case, call, entry, minimum, bound in cases
            for label, value in {"fractional": 1.5, "float": 2.0, "text": "1", "bool": True, "numpy-bool": np.True_,
                                 "None": None, "below": minimum - 1, "bound": bound}.items()
            if not (label == "bound" and bound is None)]


@pytest.mark.parametrize("call, entry, value", _integer_arrays())
def test_every_integer_array_meets_one_rule(call, entry, value):
    # An integer array holds integers as check_integer reads them, inside
    # its bounds; the first bad entry is named by its index and value.
    with pytest.raises(ValueError, match=re.escape(entry) + " must be .*, got " + re.escape(repr(value))):
        call(value)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ffbm.network_from_edges(2, [(0, 2 ** 70)]), id="edge-endpoint"),
    pytest.param(lambda: ffbm.network_from_edges(2, [(0, 1, 2 ** 70)]), id="edge-multiplicity"),
    pytest.param(lambda: ffbm.BlockState(ffbm.network_from_edges(2, [(0, 1)]), [0, 2 ** 70], 2),
                 id="block-label"),
])
def test_an_integer_array_entry_past_int64_is_named(call):
    # An entry no int64 holds is refused like any other bad entry, by a
    # ValueError naming it, not numpy's OverflowError (an ArithmeticError,
    # which the CLI reports as a numeric failure).
    with pytest.raises(ValueError, match=r"\[[01](, 1)?\] must .*, got 1180591620717411303424"):
        call()


def test_an_edge_that_is_no_sequence_is_named():
    with pytest.raises(ValueError, match=r"edge 5 is not \(u, v, multiplicity\) in integers"):
        ffbm.network_from_edges(2, [5])


def _real_arrays():
    """(entry point, bad value) params: call(value) hands the entry point one
    real array whose entry named in the message (entry) is value, read in the
    interval the message gives.  GeneratorSpec's arrays have their cases in
    test_datagen's test_generator_spec_rejects_bad_values."""
    rng = np.random.default_rng
    flat = np.full((2, 2), 0.5)
    cases = [
        ("sample_poisson_graph.affinity", lambda v: ffbm.sample_poisson_graph(
            [0, 1], [[0.1, v], [v, 0.1]], None, rng(0)), "affinity[0, 1]", "[0, inf)", -0.5),
        ("sample_poisson_graph.propensities", lambda v: ffbm.sample_poisson_graph(
            [0, 1], flat, [1.0, v], rng(0)), "propensities[1]", "(0, inf)", 0.0),
        ("ObjectiveContext.features", lambda v: ffbm.ObjectiveContext([[0.0], [v]], flat, 1.0),
         "features[1, 0]", "(-inf, inf)", math.inf),
        ("ObjectiveContext.targets", lambda v: ffbm.ObjectiveContext([[0.0], [1.0]], [[0.5, 0.5], [v, 0.5]], 1.0),
         "targets[1, 0]", "(-inf, inf)", -math.inf),
        ("mean_description_length.s_values", lambda v: ffbm.mean_description_length([1.0, v], 3, 2, 2),
         "s_values[1]", "(-inf, inf)", math.inf),
    ]
    return [pytest.param(call, entry, interval, value, id=f"{case}-{label}")
            for case, call, entry, interval, outside in cases
            for label, value in {"nan": math.nan, "bool": True, "text": "0.5", "outside": outside}.items()]


@pytest.mark.parametrize("call, entry, interval, value", _real_arrays())
def test_every_real_array_meets_one_rule(call, entry, interval, value):
    # A real array holds real numbers as check_real reads them (a bool or
    # text is none), inside its owner's interval; the first bad entry is
    # named by its index and value, with ValueError, never a NaN result.
    message = f"{entry} must be a real number in {interval}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)


def _real_settings():
    """(entry point, setting, value just outside its interval) params: each
    call sets one real-valued setting.  A RunConfig key's own interval holds
    every finite float, so its values just outside are the infinities; the
    chain, split and screen intervals it passes its keys on to have cases of
    their own."""
    rows, targets, state = np.zeros((2, 1)), np.full((2, 2), 0.5), np.zeros((1, 1))
    summary = ffbm.summarize_weights(np.zeros((2, 2, 3)))
    cases = [(f"RunConfig.{key}", lambda v, k=key: RunConfig(**{k: v}), key, math.inf)
             for key in config._FLOAT_FIELDS]
    cases += [(f"{make.__name__}.burn_in", lambda v, m=make: m(burn_in=v), "burn_in", 1.0)
              for make in (ffbm.BlockChainConfig, ffbm.WeightChainConfig)]
    cases += [
        ("BlockChainConfig.smoothing", lambda v: ffbm.BlockChainConfig(smoothing=v), "smoothing", 0.0),
        ("WeightChainConfig.step_scale", lambda v: ffbm.WeightChainConfig(step_scale=v), "step_scale",
         math.nextafter(mala.MAX_STEP_SCALE, math.inf)),
        ("WeightChainConfig.sigma", lambda v: ffbm.WeightChainConfig(sigma=v), "sigma", 0.0),
        ("ObjectiveContext.sigma", lambda v: ffbm.ObjectiveContext(rows, targets, v), "sigma", 0.0),
        ("reduce_dimension.multiplier", lambda v: ffbm.reduce_dimension(summary, v, 1), "multiplier", 0.0),
        ("split_vertices.train_fraction", lambda v: ffbm.split_vertices(10, v, 0), "train_fraction", 1.0),
        ("proposal_log_density.step", lambda v: ffbm.proposal_log_density(state, state, state, v),
         "step", 0.0),
    ]
    bad = {"True": True, "text": "0.5", "None": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
    return [pytest.param(call, name, value, id=f"{case}-{label}")
            for case, call, name, outside in cases
            for label, value in {**bad, "outside": outside}.items()
            # A None reduced_step_scale is its default: the step_scale value.
            if not (case == "RunConfig.reduced_step_scale" and value is None)]


@pytest.mark.parametrize("call, name, bad", _real_settings())
def test_every_real_setting_meets_one_rule(call, name, bad):
    # A real setting is a numbers.Real, bool aside, inside its interval;
    # text, None, NaN and a value outside the interval are refused at
    # construction or at entry, naming the setting.
    with pytest.raises(ValueError, match=f"{name} must be a real number in"):
        call(bad)


def test_real_settings_are_stored_as_plain_floats():
    half = np.float32(0.5)
    stored = [getattr(ffbm.BlockChainConfig(**{key: half}), key) for key in ("smoothing", "burn_in")]
    stored += [getattr(ffbm.WeightChainConfig(**{key: half}), key)
               for key in ("sigma", "step_scale", "burn_in")]
    stored += [ffbm.ObjectiveContext(np.zeros((2, 1)), np.full((2, 2), 0.5), half).sigma,
               analysis.check_multiplier(half), graph.check_train_fraction(half)]
    assert all(type(value) is float and value == 0.5 for value in stored)
    assert type(ffbm.BlockChainConfig(iterations=np.int64(10)).iterations) is int


def test_run_config_stores_plain_numbers(tmp_path):
    # Other number types are read by the key's kind, so the config and the
    # report that records it are plain JSON.
    from ffbm.dataio import write_json

    small = dict(repetitions=1, block_iters=20, theta_iters=150)
    for cfg, key, kind in ((RunConfig(seed=np.int64(3), **small), "seed", int),
                           (RunConfig(step_scale=np.float32(0.05), **small), "step_scale", float)):
        assert type(getattr(cfg, key)) is kind
        net = load_polbooks()
        reports, _ = pipeline.run_experiment(net, cfg)
        write_json(tmp_path / "report.json", pipeline.experiment_payload(net, cfg, reports))
        assert json.loads((tmp_path / "report.json").read_text())["config"][key] == getattr(cfg, key)


def test_chain_keys_default_to_their_chain_fields():
    for chain in (config.PARTITION_CHAIN, config.WEIGHT_CHAIN, config.REDUCED_WEIGHT_CHAIN):
        assert (dataclasses.asdict(config.chain_config(RunConfig(), chain))
                == dataclasses.asdict(chain.make())), chain.stage
    restarts = inspect.signature(mdl_partition).parameters["restarts"].default
    assert restarts == ffbm.BlockChainConfig().init_restarts


def test_chain_key_defaults_are_read_from_the_chain_configs():
    # Change every chain config default, then rebuild RunConfig: each chain
    # key's default must follow, because the chain field is its one source.
    code = (
        "import dataclasses, importlib\n"
        "from ffbm import BlockChainConfig, WeightChainConfig, config\n"
        "changed = {}\n"
        "for cls in (BlockChainConfig, WeightChainConfig):\n"
        "    for f in dataclasses.fields(cls):\n"
        "        if f.name != 'seed':\n"
        "            value = f.default + 1 if isinstance(f.default, int) else f.default * 1.5\n"
        "            setattr(cls, f.name, value)\n"
        "            changed[cls, f.name] = value\n"
        "config = importlib.reload(config)\n"
        "for chain in (config.PARTITION_CHAIN, config.WEIGHT_CHAIN, config.REDUCED_WEIGHT_CHAIN):\n"
        "    built = config.chain_config(config.RunConfig(), chain)\n"
        "    for name, key in chain.keys.items():\n"
        "        assert getattr(built, name) == changed[chain.make, name], key\n"
        "print(len(changed))\n")
    src = Path(ffbm.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "10"


def test_pipeline_runs_the_chain_settings_it_validates(monkeypatch):
    cfg = RunConfig(block_iters=12, block_burn_in=0.25, block_thinning=3, proposal_smoothing=0.5,
                    init_restarts=2, theta_iters=30, theta_burn_in=0.1, theta_thinning=2,
                    sigma=1.5, step_scale=0.3, reduce_dim=1, reduced_theta_iters=20,
                    reduced_theta_burn_in=0.2, reduced_theta_thinning=4, reduced_step_scale=0.7)
    seen = []
    run_block_chain, run_weight_chains = pipeline.run_block_chain, pipeline.run_weight_chains
    monkeypatch.setattr(pipeline, "run_block_chain",
                        lambda net, b, chain_cfg: seen.append(chain_cfg) or run_block_chain(net, b, chain_cfg))
    monkeypatch.setattr(pipeline, "run_weight_chains",
                        lambda ctxs, cfgs: seen.extend(cfgs) or run_weight_chains(ctxs, cfgs))
    pipeline.run_repetition(load_polbooks(), cfg, 0)
    block, weight, reduced = seen
    assert (block.iterations, block.burn_in, block.thinning, block.smoothing,
            block.init_restarts) == (12, 0.25, 3, 0.5, 2)
    assert (weight.iterations, weight.burn_in, weight.thinning, weight.sigma,
            weight.step_scale) == (30, 0.1, 2, 1.5, 0.3)
    assert (reduced.iterations, reduced.burn_in, reduced.thinning, reduced.sigma,
            reduced.step_scale) == (20, 0.2, 4, 1.5, 0.7)


def test_runs_with_scipy_blocked():
    # ffbm needs only numpy and the standard library, and a serial run
    # loads no process pool.
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import ffbm\n"
        "cfg = ffbm.RunConfig(repetitions=2, block_iters=50, theta_iters=500, seed=1)\n"
        "reports, _ = ffbm.run_experiment(ffbm.load_polbooks(), cfg)\n"
        "assert len(reports) == 2\n"
        "roots = ('scipy', 'concurrent', 'multiprocessing')\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] in roots and mod))\n")
    src = Path(ffbm.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_config_checks_long_chains_without_listing_their_samples():
    # Each chain would keep 6 x 10^8 samples: listing their indices to check
    # the settings would take gigabytes.
    tracemalloc.start()
    try:
        RunConfig(theta_iters=10**9, theta_thinning=1, reduce_dim=1,
                  reduced_theta_iters=10**9, reduced_theta_thinning=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("error, code", [(ArithmeticError, 3), (ValueError, 2)])
def test_failing_repetition_names_itself(synthetic_dir, tmp_path, monkeypatch, capsys,
                                         jobs, error, code):
    # The patch reaches --jobs 2 workers because they are forked from this process.
    import ffbm.pipeline as pipeline_mod

    real = pipeline_mod.partition_stage

    def fail_second(net, cfg, repetition):
        if repetition == 1:
            raise error("chain broke")
        return real(net, cfg, repetition)

    monkeypatch.setattr(pipeline_mod, "partition_stage", fail_second)
    _, cfg = synthetic_dir
    assert main(["report", "--config", str(cfg), "--seed", "4", "--jobs", str(jobs),
                 "--out-dir", str(tmp_path / "out")]) == code
    assert "repetition 1 (master seed 4): chain broke" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_weight_chain_of_a_stack_names_its_repetition(synthetic_dir, tmp_path, monkeypatch,
                                                              capsys, jobs):
    # Four repetitions: one lockstep stack of four under --jobs 1, one stack
    # of two per worker under --jobs 2.  The second chain of each stack gets
    # a NaN proposal U at iteration 7 (iteration 0 is the initial draw); in
    # both cases that is repetition 1, the first to fail in index order.
    stacks = objective_failing_at(monkeypatch, 7, math.nan, chain=1)
    _, cfg = synthetic_dir
    assert main(["report", "--config", str(cfg), "--seed", "4", "--jobs", str(jobs),
                 "--set", "repetitions=4", "--out-dir", str(tmp_path / "out")]) == 3
    # The workers run their stacks in their own processes.
    assert stacks == ([4] if jobs == 1 else [])
    assert ("repetition 1 (master seed 4): weight-chain objective is nan at the proposal of "
            "iteration 7") in capsys.readouterr().err


def test_stage_command_names_a_failing_weight_chain_as_repetition_zero(synthetic_dir, tmp_path,
                                                                       monkeypatch, capsys):
    objective_failing_at(monkeypatch, 7, math.nan)
    _, cfg = synthetic_dir
    assert main(["sample-theta", "--config", str(cfg), "--seed", "4",
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert ("repetition 0 (master seed 4): weight-chain objective is nan at the proposal of "
            "iteration 7") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample-blocks", "sample-theta"])
def test_stage_command_names_a_failing_partition_chain_as_repetition_zero(synthetic_dir, tmp_path,
                                                                          monkeypatch, capsys, command):
    import ffbm.pipeline as pipeline_mod

    def broken(*args, **kwargs):
        raise ArithmeticError("chain broke")

    monkeypatch.setattr(pipeline_mod, "run_block_chain", broken)
    _, cfg = synthetic_dir
    assert main([command, "--config", str(cfg), "--seed", "4",
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert "repetition 0 (master seed 4): chain broke" in capsys.readouterr().err


@pytest.mark.parametrize("jobs, named", [(1, "repetitions 0 to 2"), (2, "repetition 0")])
@pytest.mark.parametrize("error, code", [(ArithmeticError, 3), (ValueError, 2)])
def test_failure_in_the_lockstep_stages_names_their_repetitions(synthetic_dir, tmp_path, monkeypatch,
                                                                 capsys, jobs, named, error, code):
    # A failure of the screen is no one chain's, so it names the repetitions
    # of its lockstep run: the one run 0-2 under --jobs 1; under --jobs 2 the
    # runs are 0 and 1-2, and run 0's failure comes first.
    import ffbm.pipeline as pipeline_mod

    def broken(samples):
        raise error("screen broke")

    monkeypatch.setattr(pipeline_mod, "summarize_weights", broken)
    _, cfg = synthetic_dir
    assert main(["report", "--config", str(cfg), "--seed", "4", "--jobs", str(jobs),
                 "--set", "repetitions=3", "--set", "reduce_dim=1",
                 "--out-dir", str(tmp_path / "out")]) == code
    assert f"{named} (master seed 4): screen broke" in capsys.readouterr().err


def test_undefined_block_accuracy_is_null_and_left_out_of_the_mean(synthetic_dir, tmp_path,
                                                                   monkeypatch):
    # A block with no vertex on the test side has no test accuracy.
    import ffbm.pipeline as pipeline_mod

    real = pipeline_mod.repetition_report

    def without_block_one(net, cfg, art):
        report = real(net, cfg, art)
        if art.repetition == 0:
            report.accuracy_test[1] = math.nan
        return report

    monkeypatch.setattr(pipeline_mod, "repetition_report", without_block_one)
    _, cfg = synthetic_dir
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg), "--out-dir", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    first, second = (rep["accuracy_test"] for rep in payload["per_repetition"])
    assert first[1] is None and second[1] is not None
    assert payload["mean"]["accuracy_test"] == [(first[0] + second[0]) / 2, second[1]]
    assert payload["std"]["accuracy_test"][1] == 0.0


def test_a_block_undefined_in_every_repetition_runs_clean_under_runtime_warnings_as_errors(tmp_path):
    # On this six-block instance each of these seeds leaves a block with no
    # vertex on the test side of its one repetition, so that block's test
    # accuracy is undefined everywhere and aggregates to null, without a
    # numpy warning.
    data = tmp_path / "data"
    assert main(["generate", "--num-vertices", "30", "--num-blocks", "6", "--affinity-diag", "0.5",
                 "--affinity-off", "0.05", "--seed", "2", "--out-dir", str(data)]) == 0
    code = (
        "import sys\n"
        "from ffbm.cli import main\n"
        "out, args = sys.argv[1], sys.argv[2:]\n"
        "for seed in ('1', '2', '4'):\n"
        "    code = main(['report', '--seed', seed, '--out-dir', f'{out}/{seed}', *args])\n"
        "    if code:\n"
        "        sys.exit(code)\n")
    src = Path(ffbm.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code, str(tmp_path),
         "--set", f"edges={data / 'edges.txt'}", "--set", f"features={data / 'features.csv'}",
         "--set", "num_blocks=6", "--set", "repetitions=1", "--set", "block_iters=50",
         "--set", "theta_iters=500"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for seed in ("1", "2", "4"):
        payload = json.loads((tmp_path / seed / "report.json").read_text())
        undefined = [j for j, x in enumerate(payload["per_repetition"][0]["accuracy_test"]) if x is None]
        assert undefined
        for part in ("mean", "std"):
            assert all(payload[part]["accuracy_test"][j] is None for j in undefined)


def test_repetitions_drop_their_partition_samples_before_the_weight_stage():
    # Every repetition's partition stage runs before the weight stage.  Each
    # keeps its S trace and responsibilities for the metrics, but not its
    # retained partitions, so four repetitions peak less than one
    # repetition's partitions above one repetition; keeping them would add
    # three times that.  Under tracemalloc the cost is in the partition
    # chains, so a small network with many retained sweeps keeps the
    # partitions large beside the rest of a repetition at little cost.
    off = 8.0 * 4 / (150 * 13)
    spec = ffbm.GeneratorSpec(num_vertices=150, weights=3.0 * np.eye(4),
                              affinity=np.full((4, 4), off) + np.eye(4) * 9 * off,
                              feature_probs=np.full(4, 0.5), seed=3)
    net, _ = ffbm.generate(spec)
    cfgs = {r: RunConfig(num_blocks=4, repetitions=r, init_restarts=1, block_iters=100,
                         block_burn_in=0.0, block_thinning=1, theta_iters=100, seed=2)
            for r in (1, 4)}
    # Fills the lazy tables the traced runs read, and keeps the partitions.
    _, kept = ffbm.run_experiment(net, cfgs[4], keep_artifacts=True)
    peaks = {}
    for repetitions, cfg in cfgs.items():
        tracemalloc.start()
        try:
            reports, artifacts = ffbm.run_experiment(net, cfg)
            _, peaks[repetitions] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == repetitions and artifacts is None
    samples = kept[0].block_result.samples
    assert len(samples) == 101
    assert peaks[4] - peaks[1] < sum(b.nbytes for b in samples)


# reduce reads its config, its output directory and theta_samples.csv, not
# the data files (test_reduce_reads_only_its_sample_file).
@pytest.mark.parametrize("case, command", [
    (case, command)
    for case in ("edges-dir", "features-dir", "config-dir", "out-dir-file", "malformed-edges",
                 "bad-bytes")
    for command in ("sample-blocks", "sample-theta", "reduce", "report", "run")
    if command != "reduce" or case in ("config-dir", "out-dir-file")])
def test_unreadable_or_malformed_input_exits_two(synthetic_dir, tmp_path, monkeypatch, capsys,
                                                 command, case):
    import ffbm.pipeline as pipeline_mod

    def never(*args, **kwargs):
        raise AssertionError("the partition chain ran on input that cannot be read")

    monkeypatch.setattr(pipeline_mod, "run_block_chain", never)
    _, cfg = synthetic_dir
    folder = tmp_path / "folder"
    folder.mkdir()
    bad_edges = tmp_path / "bad_edges.txt"
    bad_edges.write_text("0 1\n1 two\n")
    as_file = tmp_path / "a_file"
    as_file.write_text("")
    bad_bytes = tmp_path / "bad_bytes.csv"
    bad_bytes.write_bytes(b"vertex,caf\xe9\n")
    args = {
        "edges-dir": ["--config", str(cfg), "--set", f"edges={folder}"],
        "features-dir": ["--config", str(cfg), "--set", f"features={folder}"],
        "config-dir": ["--config", str(folder)],
        "out-dir-file": ["--config", str(cfg), "--out-dir", str(as_file)],
        "malformed-edges": ["--config", str(cfg), "--set", f"edges={bad_edges}"],
        "bad-bytes": ["--config", str(cfg), "--set", f"features={bad_bytes}"],
    }[case]
    if case != "out-dir-file":
        args += ["--out-dir", str(tmp_path / "out")]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ffbm: data error:") and "Traceback" not in err
    if case == "bad-bytes":
        assert f"{bad_bytes}: not UTF-8" in err


def test_generate_into_a_file_exits_two(tmp_path):
    as_file = tmp_path / "a_file"
    as_file.write_text("")
    assert main(["generate", "--num-vertices", "10", "--out-dir", str(as_file)]) == 2


@pytest.mark.parametrize("flag, name", [
    ("--feature-prob=1.5", "feature_probs"),
    ("--feature-prob=nan", "feature_probs"),
    ("--weight-scale=nan", "weights"),
    ("--num-vertices=-3", "num_vertices"),
    ("--num-blocks=0", "--num-blocks"),
    ("--num-blocks=-2", "--num-blocks"),
    ("--num-features=-1", "--num-features"),
    ("--affinity-diag=inf", "affinity"),
    ("--affinity-off=-0.5", "affinity"),
    ("--seed=-1", "seed"),
])
def test_bad_generate_arguments_exit_two_and_write_nothing(tmp_path, capsys, flag, name):
    out = tmp_path / "inst"
    assert main(["generate", "--num-vertices", "20", flag, "--out-dir", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())
    err = capsys.readouterr().err
    assert err.startswith("ffbm: data error:") and name in err


def test_generate_with_a_huge_affinity_exits_two_and_names_it(tmp_path, capsys):
    out = tmp_path / "inst"
    args = ["generate", "--num-vertices", "5", "--affinity-diag", "1e300", "--out-dir", str(out)]
    assert main(args) == 2
    assert not out.exists() or not any(out.iterdir())
    err = capsys.readouterr().err
    assert err.startswith("ffbm: data error: affinity too large")
    assert "largest Poisson edge mean is 1e+300" in err and "Traceback" not in err


def test_outputs_do_not_depend_on_the_locale(synthetic_dir, tmp_path):
    inst, cfg = synthetic_dir
    features = inst / "features.csv"
    features.write_bytes(features.read_bytes().replace(b"f0", "café".encode(), 1))
    src = Path(ffbm.__file__).resolve().parents[1]
    locales = {
        "ascii": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
        "utf8": {"PYTHONUTF8": "1"},
    }
    outputs = {}
    for name, env in locales.items():
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "ffbm.cli", "sample-theta", "--config", str(cfg),
             "--seed", "3", "--out-dir", str(out)],
            env={**os.environ, "PYTHONPATH": str(src), **env}, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outputs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs["ascii"] == outputs["utf8"]
    assert "0.café,".encode() in outputs["ascii"]["theta_samples.csv"]


def test_huge_vertex_id_exits_two_under_a_memory_cap(tmp_path):
    # Without a feature file N comes from the edge ids, and an id of 10^10
    # would ask for arrays of 10^10 entries.  The child caps its own address
    # space at 4 GiB before importing anything, so a regression fails with a
    # memory error instead of exhausting the machine.
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n# a far id\n1 10000000000\n")
    code = (
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from ffbm.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n")
    src = Path(ffbm.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code, "sample-blocks", "--set", f"edges={edges}",
         "--out-dir", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert f"{edges}:3: vertex id 10000000000 " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_edge_id_beyond_the_feature_rows_names_both_files(tmp_path, capsys):
    # The feature file's three rows set N = 3, so the id 5 on line 3 of the
    # edge file is a data error that names both files and the line.
    edges, features = tmp_path / "e.txt", tmp_path / "f.csv"
    edges.write_text("0 1\n# a far id\n1 5\n")
    features.write_text("vertex,flag\n0,1\n1,0\n2,1\n")
    assert main(["sample-blocks", "--set", f"edges={edges}", "--set", f"features={features}",
                 "--set", "num_blocks=2", "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{edges}:3: vertex id 5 outside [0, 3) set by {features}" in err
    assert "Traceback" not in err
