"""Fuzzing of the input parsers: malformed input raises DataFormatError, never anything else."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffbm import DataFormatError, RunConfig, build_config
from ffbm.dataio import parse_categorical_features, parse_edge_list, parse_features

# Each file is fed as arbitrary text, as raw bytes (often not UTF-8), and as
# text drawn from the characters the format gives meaning to, so that the
# parsers' later checks are reached too.
EDGE_TEXT = st.text(alphabet="0123456789 \t-#\n\r", max_size=80)


@st.composite
def tables(draw):
    """A 'vertex,a,b' CSV: shuffled ids, cells mostly flags, then random trailing text."""
    ids = draw(st.permutations(range(draw(st.integers(0, 3)))))
    cell = st.sampled_from(["0", "1", "0", "1", " 1", "2", "", '"a\nb"'])
    rows = "".join(f"{vid},{draw(cell)},{draw(cell)}\n" for vid in ids)
    return "vertex,a,b\n" + rows + draw(st.just("") | st.text(alphabet='0123 ,"x\n\r-', max_size=8))


CONFIG_KEYS = st.sampled_from([f.name for f in dataclasses.fields(RunConfig)] + ["bogus"])
CONFIG_VALUES = st.text(alphabet="0123456789.-e+naifNul ", max_size=20) | st.text(max_size=20)
CONFIG_TEXT = st.lists(st.builds("{} = {}".format, CONFIG_KEYS, CONFIG_VALUES),
                       max_size=4).map("\n".join)


def _check_config(cfg):
    assert isinstance(cfg, RunConfig)
    for field in dataclasses.fields(RunConfig):
        value = getattr(cfg, field.name)
        if field.type == "float":
            assert math.isfinite(value)
        elif field.type == "int" and field.default is not None:
            assert isinstance(value, int)


def contents(structured):
    return st.one_of(st.text(), st.binary(), structured)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _write(path, content):
    path.write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
    return path


@given(contents(EDGE_TEXT))
@settings(max_examples=200, deadline=None)
def test_parse_edge_list_fuzz(input_path, content):
    try:
        edges = parse_edge_list(_write(input_path, content))
    except DataFormatError:
        return
    for u, v, m in edges:
        assert all(isinstance(x, int) for x in (u, v, m))
        assert u >= 0 and v >= 0 and m >= 1


@pytest.mark.parametrize("parse", [parse_features, parse_categorical_features])
@given(content=contents(tables()), num_vertices=st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_parse_feature_tables_fuzz(input_path, parse, content, num_vertices):
    try:
        matrix, names = parse(_write(input_path, content), num_vertices)
    except DataFormatError:
        return
    assert matrix.dtype == np.int8
    assert matrix.shape == (num_vertices, len(names))
    assert np.isin(matrix, (0, 1)).all()
    assert all(isinstance(name, str) for name in names)


@given(contents(CONFIG_TEXT))
@settings(max_examples=200, deadline=None)
def test_parse_config_file_fuzz(input_path, content):
    try:
        cfg = build_config(_write(input_path, content))
    except DataFormatError:
        return
    _check_config(cfg)


@given(st.lists(st.text(max_size=12) | st.builds("{}={}".format, CONFIG_KEYS, CONFIG_VALUES),
                max_size=4))
@settings(max_examples=200, deadline=None)
def test_build_config_overrides_fuzz(overrides):
    try:
        cfg = build_config(overrides=overrides)
    except DataFormatError:
        return
    _check_config(cfg)
