import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffbm import (
    DataFormatError,
    load_network,
    load_polbooks,
    network_from_edges,
    parse_categorical_features,
    parse_edge_list,
    parse_features,
)
from ffbm.config import build_config, parse_config_file
from ffbm.dataio import (
    SPARSE_VERTEX_LIMIT,
    read_weight_samples,
    write_edge_list,
    write_features,
    write_json,
    write_weight_samples,
)


# ------------------------------------------------------------------- parsing

def test_parse_edge_list_path(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n1 2\n")
    edges = parse_edge_list(p)
    net = network_from_edges(3, edges)
    assert net.num_edges == 2


def test_parse_edge_list_accumulates_duplicates(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n0 1\n")
    net = network_from_edges(2, parse_edge_list(p))
    assert net.edges == ((0, 1, 2),)


def test_parse_edge_list_self_loop_degree(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 0\n")
    net = network_from_edges(1, parse_edge_list(p))
    assert net.degrees.tolist() == [2]


def test_parse_edge_list_comments_and_multiplicity(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# header\n\n0 1 3  # trailing comment\n2 1\n")
    edges = parse_edge_list(p)
    assert sorted(edges) == [(0, 1, 3), (2, 1, 1)]


@pytest.mark.parametrize("content", ["a b\n", "0 -1\n", "0 1 0\n", "0 1 2 3\n", "0 1 -2\n"])
def test_parse_edge_list_rejects_bad_lines(tmp_path, content):
    p = tmp_path / "edges.txt"
    p.write_text(content)
    with pytest.raises(DataFormatError):
        parse_edge_list(p)


def test_parse_features_one_hot(tmp_path):
    p = tmp_path / "features.csv"
    p.write_text("vertex,lib,con,neu\n0,1,0,0\n1,0,1,0\n")
    matrix, names = parse_features(p, 2)
    assert names == ("lib", "con", "neu")
    assert matrix.tolist() == [[1, 0, 0], [0, 1, 0]]


@pytest.mark.parametrize("body,msg", [
    ("0,2,0,0\n1,0,1,0\n", "binary"),
    ("0,1,0,0\n", "missing"),
    ("0,1,0,0\n0,0,1,0\n", "duplicate"),
    ("0,1,0,0\n5,0,1,0\n", "outside"),
])
def test_parse_features_errors(tmp_path, body, msg):
    p = tmp_path / "features.csv"
    p.write_text("vertex,a,b,c\n" + body)
    with pytest.raises(DataFormatError, match=msg):
        parse_features(p, 2)


def test_parse_features_requires_vertex_header(tmp_path):
    p = tmp_path / "features.csv"
    p.write_text("id,a\n0,1\n")
    with pytest.raises(DataFormatError):
        parse_features(p, 1)


def test_categorical_expansion(tmp_path):
    p = tmp_path / "cats.csv"
    p.write_text("vertex,gender\n0,m\n1,f\n2,m\n")
    matrix, names = parse_categorical_features(p, 3)
    assert names == ("gender-f", "gender-m")
    assert matrix.tolist() == [[0, 1], [1, 0], [0, 1]]


def test_load_network_combines_sources(tmp_path):
    (tmp_path / "e.txt").write_text("0 1\n1 2\n")
    (tmp_path / "f.csv").write_text("vertex,flag\n0,1\n1,0\n2,1\n")
    (tmp_path / "c.csv").write_text("vertex,cls\n0,x\n1,y\n2,x\n")
    net = load_network(tmp_path / "e.txt", tmp_path / "f.csv", tmp_path / "c.csv")
    assert net.feature_names == ("flag", "cls-x", "cls-y")
    assert net.features.tolist() == [[1, 1, 0], [0, 0, 1], [1, 1, 0]]


def test_load_network_infers_vertex_count(tmp_path):
    (tmp_path / "e.txt").write_text("0 4\n")
    net = load_network(tmp_path / "e.txt")
    assert net.num_vertices == 5


@pytest.mark.parametrize("low_ids, ok", [(SPARSE_VERTEX_LIMIT // 2, True),
                                         (SPARSE_VERTEX_LIMIT // 2 - 1, False)])
def test_sparse_vertex_ids_need_half_of_them_in_edges(tmp_path, low_ids, ok):
    # Ids 0 .. low_ids - 1 in a path, then one far id making N = limit + 2,
    # of which low_ids + 1 appear in an edge: half of N at the first value.
    far = SPARSE_VERTEX_LIMIT + 1
    lines = [f"{i} {i + 1}\n" for i in range(low_ids - 1)] + [f"0 {far}\n", f"1 {far}\n"]
    (tmp_path / "e.txt").write_text("".join(lines))
    if ok:
        assert load_network(tmp_path / "e.txt").num_vertices == far + 1
    else:
        with pytest.raises(DataFormatError, match=rf"e.txt:{low_ids}: vertex id {far}\b"):
            load_network(tmp_path / "e.txt")
    # A feature file sets N, and an id beyond it is an error of its own.
    (tmp_path / "f.csv").write_text("vertex,flag\n" + "".join(f"{i},0\n" for i in range(far + 1)))
    assert load_network(tmp_path / "e.txt", tmp_path / "f.csv").num_vertices == far + 1


@pytest.mark.parametrize("edges, features, error", [
    ("0 1\n1 2\n", None, None),
    ("0 1\n1 2\n", "vertex,flag\n0,1\n1,0\n2,1\n", None),
    ("0 1\n1 5\n", "vertex,flag\n0,1\n1,0\n2,1\n", r"e.txt:2: vertex id 5 outside \[0, 3\)"),
    (f"0 1\n1 {SPARSE_VERTEX_LIMIT + 1}\n", None, rf"e.txt:2: vertex id {SPARSE_VERTEX_LIMIT + 1} "),
], ids=["edges", "with-features", "id-beyond-features", "sparse-ids"])
def test_load_network_reads_the_edge_file_once(tmp_path, monkeypatch, edges, features, error):
    # The error paths name a line from the parsed edges, not from a second
    # read of a file that may have changed since.
    import ffbm.dataio as dataio

    paths = []
    read_bytes = dataio.read_bytes
    monkeypatch.setattr(dataio, "read_bytes", lambda path: paths.append(path) or read_bytes(path))
    (tmp_path / "e.txt").write_text(edges)
    args = [tmp_path / "e.txt"]
    if features is not None:
        (tmp_path / "f.csv").write_text(features)
        args.append(tmp_path / "f.csv")
    if error is None:
        load_network(*args)
    else:
        with pytest.raises(DataFormatError, match=error):
            load_network(*args)
    assert paths.count(tmp_path / "e.txt") == 1


@pytest.mark.parametrize("kind, text", [
    ("features", "vertex,flag\n0,1\n1,0\n2,1\n,\n"),
    ("categorical", 'vertex,title\n0,"two\nlines"\n1,x\n2,y\n'),
])
def test_load_network_counts_parsed_rows(tmp_path, kind, text):
    (tmp_path / "e.txt").write_text("0 1\n1 2\n")
    (tmp_path / "f.csv").write_text(text)
    net = load_network(tmp_path / "e.txt", **{f"{kind}_path": tmp_path / "f.csv"})
    assert net.num_vertices == 3
    parse = {"features": parse_features, "categorical": parse_categorical_features}[kind]
    matrix, _ = parse(tmp_path / "f.csv")  # N defaults to the parsed rows
    assert matrix.shape[0] == 3


@pytest.mark.parametrize("reader, name, text", [
    (parse_edge_list, "edges.txt", b"0 1\n1 \xff2\n"),
    (lambda p: parse_features(p, 2), "features.csv", b"vertex,a\n0,1\n1,\xff\n"),
    (lambda p: parse_categorical_features(p, 2), "cats.csv", b"vertex,c\n0,caf\xe9\n1,x\n"),
    (parse_config_file, "run.cfg", b"num_blocks = 2 # \xfe\n"),
    (read_weight_samples, "theta_samples.csv", b"t,0.a\n0,0.5\xff\n"),
], ids=["edges", "features", "categorical", "config", "theta-samples"])
def test_invalid_utf8_names_the_file(tmp_path, reader, name, text):
    path = tmp_path / name
    path.write_bytes(text)
    with pytest.raises(DataFormatError, match="not UTF-8") as info:
        reader(path)
    assert str(path) in str(info.value)


def test_a_leading_byte_order_mark_is_ignored(tmp_path):
    # Some editors start UTF-8 files with a byte-order mark.  Every reader
    # drops it, and input_sha256 still names the bytes read, mark included.
    bom = b"\xef\xbb\xbf"
    edges, features = tmp_path / "edges.txt", tmp_path / "features.csv"
    edges.write_bytes(bom + b"0 1\n1 2\n")
    features.write_bytes(bom + b"vertex,a\n0,1\n1,0\n2,1\n")
    net = load_network(edges, features)
    assert (net.num_edges, net.feature_names) == (2, ("a",))
    assert net.input_sha256["edges"] == hashlib.sha256(edges.read_bytes()).hexdigest()
    for name, text in (("run.cfg", b"block_iters = 5\n"), ("run.json", b'{"block_iters": 5}')):
        path = tmp_path / name
        path.write_bytes(bom + text)
        assert build_config(path).block_iters == 5


@pytest.mark.parametrize("row", ["20,0.1,abc", "20,0.1", "20,0.1,0.2,0.3", "2x,0.1,0.2", "20,0.1,nan"],
                         ids=["bad-cell", "short-row", "long-row", "non-integer-t", "non-finite"])
def test_malformed_weight_samples_name_the_file_and_row(tmp_path, row):
    path = tmp_path / "theta_samples.csv"
    path.write_text(f"t,0.a,1.a\n10,0.5,-0.5\n{row}\n")
    with pytest.raises(DataFormatError) as info:
        read_weight_samples(path)
    assert f"{path}:3:" in str(info.value)


def test_write_json_refuses_non_finite_numbers(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_json(path, {"loss": float("nan")})
    assert not path.exists()


# ---------------------------------------------------------------- round trips

@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 4)),
                min_size=1, max_size=15),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_network_round_trip(edges, seed):
    rng = np.random.default_rng(seed)
    feats = rng.integers(0, 2, size=(6, 3)).astype(np.int8)
    net = network_from_edges(6, edges, feats, ("a", "b", "c"))
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        epath = os.path.join(tmp, "e.txt")
        fpath = os.path.join(tmp, "f.csv")
        write_edge_list(epath, net.edges)
        write_features(fpath, net.features, net.feature_names)
        back = load_network(epath, fpath)
    assert back.num_vertices == net.num_vertices
    assert back.num_edges == net.num_edges
    assert back.edges == net.edges
    assert np.array_equal(back.features, net.features)


def test_weight_samples_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = [rng.normal(size=(2, 3)) for _ in range(4)]
    retained = [10, 20, 30, 40]
    path = tmp_path / "theta.csv"
    write_weight_samples(path, samples, retained, ("alpha", "beta", "gamma"))
    back, back_retained, names = read_weight_samples(path)
    assert back_retained == retained
    assert names == ("alpha", "beta", "gamma")
    assert np.allclose(np.stack(back), np.stack(samples))
    header = path.read_text().splitlines()[0]
    assert header.startswith("t,0.alpha,0.beta,0.gamma,1.alpha")
    # A chain hands its samples over as one K x B x D array.
    stacked = tmp_path / "stacked.csv"
    write_weight_samples(stacked, np.stack(samples), retained, ("alpha", "beta", "gamma"))
    assert stacked.read_bytes() == path.read_bytes()


# ------------------------------------------------------------ bundled dataset

def test_polbooks_loads():
    net = load_polbooks()
    assert net.num_vertices == 105
    assert net.num_edges == 441
    assert net.feature_names == ("liberal", "conservative", "neutral")
    assert net.features.sum(axis=1).tolist() == [1] * 105
    assert int(net.degrees.sum()) == 882
