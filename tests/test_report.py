"""aggregate_reports: one rule for every metric of report.json."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffbm import EvaluationReport
from ffbm.pipeline import aggregate_reports


def _report(accuracy_train=(0.5,), accuracy_test=(0.5,), **fields):
    values = dict(mean_dl=1.0, loss_train=0.5, loss_test=0.6, acceptance_ratio=0.9,
                  mean_objective=10.0)
    values.update(fields)
    return EvaluationReport(accuracy_train=list(accuracy_train), accuracy_test=list(accuracy_test),
                            **values)


def _two_branch_aggregate(reports) -> dict:
    """aggregate_reports as it was when two named accuracy lists were averaged
    entry by entry and every other key as one scalar; the reference for
    inputs both rules cover."""
    dicts = [r.to_dict() for r in reports]
    mean, std = {}, {}
    for key in dicts[0]:
        if key == "kept_features":
            continue
        values = [d.get(key) for d in dicts]
        if key in ("accuracy_train", "accuracy_test"):
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


def _hex(value):
    if isinstance(value, list):
        return [_hex(x) for x in value]
    return None if value is None else float(value).hex()


_METRIC = st.floats(-1e6, 1e6)


@st.composite
def _repetition_reports(draw):
    """1 to 6 reports of up to 5 blocks, whose per-block entries are NaN
    (a block with no vertex on a side) in some repetitions but not all."""
    repetitions, blocks = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    screened = draw(st.booleans())
    lists = {}
    for key in ("accuracy_train", "accuracy_test"):
        rows = draw(st.lists(st.lists(_METRIC, min_size=blocks, max_size=blocks),
                             min_size=repetitions, max_size=repetitions))
        undefined = draw(st.lists(st.lists(st.booleans(), min_size=blocks, max_size=blocks),
                                  min_size=repetitions, max_size=repetitions))
        for j in range(blocks):
            defined = draw(st.integers(0, repetitions - 1))  # no column is undefined everywhere
            undefined[defined][j] = False
        lists[key] = [[math.nan if off else x for x, off in zip(row, offs)]
                      for row, offs in zip(rows, undefined)]
    reports = []
    for rep in range(repetitions):
        scalars = dict(zip(("mean_dl", "loss_train", "loss_test", "acceptance_ratio",
                            "mean_objective"), draw(st.lists(_METRIC, min_size=5, max_size=5))))
        if screened:
            scalars.update(zip(("cutoff", "reduced_loss_train", "reduced_loss_test",
                                "reduced_acceptance_ratio"),
                               draw(st.lists(_METRIC, min_size=4, max_size=4))))
            scalars["kept_features"] = [rep % 3, 5]
        reports.append(_report(lists["accuracy_train"][rep], lists["accuracy_test"][rep], **scalars))
    return reports


@given(reports=_repetition_reports())
@settings(max_examples=200, deadline=None)
def test_one_rule_equals_the_two_branch_aggregate(reports):
    got, want = aggregate_reports(reports), _two_branch_aggregate(reports)
    for part in ("mean", "std"):
        assert got[part].keys() == want[part].keys()
        for key, value in want[part].items():
            assert _hex(got[part][key]) == _hex(value), (part, key)


def test_an_entry_undefined_in_every_repetition_aggregates_to_null_without_a_warning():
    reports = [_report(accuracy_test=[0.25, math.nan], extras={"gap": None}),
               _report(accuracy_test=[0.75, math.nan], extras={"gap": None})]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        aggregate = aggregate_reports(reports)
    assert aggregate["mean"]["accuracy_test"] == [0.5, None]
    assert aggregate["std"]["accuracy_test"] == [0.25, None]
    assert aggregate["mean"]["gap"] is None and aggregate["std"]["gap"] is None


@pytest.mark.parametrize("second, mean, std", [
    ([5.0, 7.0], [3.0, 5.0], [2.0, 2.0]),
    ([5.0, None], [3.0, 3.0], [2.0, 0.0]),
])
def test_a_list_valued_extra_aggregates_entry_by_entry(second, mean, std):
    reports = [_report(extras={"ess": [1.0, 3.0], "rhat": 1.0}),
               _report(extras={"ess": second, "rhat": 1.5})]
    aggregate = aggregate_reports(reports)
    assert aggregate["mean"]["ess"] == mean and aggregate["std"]["ess"] == std
    assert aggregate["mean"]["rhat"] == 1.25 and aggregate["std"]["rhat"] == 0.25


def test_a_list_null_as_a_whole_is_undefined_in_each_entry():
    aggregate = aggregate_reports([_report(extras={"ess": [1.0, 2.0]}), _report(extras={"ess": None})])
    assert aggregate["mean"]["ess"] == [1.0, 2.0] and aggregate["std"]["ess"] == [0.0, 0.0]


@pytest.mark.parametrize("second", [[1.0, 2.0], 1.0])
def test_a_metric_of_two_shapes_is_refused_by_name(second):
    with pytest.raises(ValueError, match="'ess' takes shapes"):
        aggregate_reports([_report(extras={"ess": [1.0]}), _report(extras={"ess": second})])


def test_no_reports_are_refused():
    # An experiment without repetitions has no mean or std to report.
    with pytest.raises(ValueError, match="no repetition reports"):
        aggregate_reports([])


def test_a_metric_of_any_repetition_is_aggregated():
    aggregate = aggregate_reports([_report(), _report(extras={"rhat": 1.5})])
    assert list(aggregate["mean"])[-1] == "rhat"
    assert aggregate["mean"]["rhat"] == 1.5 and aggregate["std"]["rhat"] == 0.0


def test_extras_may_not_replace_a_metric():
    with pytest.raises(ValueError, match="loss_train"):
        _report(extras={"loss_train": 0.0, "ess": 3.0}).to_dict()
