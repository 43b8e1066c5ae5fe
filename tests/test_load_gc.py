"""``load_scenario`` decodes with the cyclic garbage collector paused: a long
coefficient table loads without a collection, and every way out of the load
leaves the collector as it found it."""

import gc
import json
import math

import pytest

from wkbrec import ScenarioError, load_scenario

ORDER, HORIZON = 4, 5000


def long_table():
    """Order 4, a tabulated column of HORIZON + 5 [re, im] pairs per
    coefficient: the shape of a long tabulated run."""
    rows = range(HORIZON + ORDER + 1)
    column = [[math.cos(k / 100), math.sin(k / 100)] for k in rows]
    return {
        "order": ORDER,
        "horizon": HORIZON,
        "coefficients": [
            {"variant": "tabulated", "values": column, "k_first": 0} for _ in range(ORDER)
        ],
        "initial": ["1", "0", "0", "0"],
        "methods": ["direct"],
    }


@pytest.fixture
def collections():
    """The generation of each collection started while the test runs."""
    seen = []

    def hook(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        yield seen
    finally:
        gc.callbacks.remove(hook)


def write(tmp_path, text):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    return path


def test_a_long_table_loads_without_a_collection(tmp_path, collections):
    path = write(tmp_path, json.dumps(long_table()))
    gc.collect()
    collections.clear()
    scenario = load_scenario(path)
    # allocations after the load: a resume with the decoded tree still
    # alive would set off a pass over it here
    after = [[] for _ in range(10)]
    assert collections == []
    assert scenario.spec.table.shape == (HORIZON + ORDER + 1, ORDER + 1)
    assert len(after) == 10


BAD_FILES = {
    "invalid-json": '{"order": 3,',
    "schema-error": json.dumps({**long_table(), "order": 1}),
    "nested": "[" * 100000 + "]" * 100000,
}


@pytest.mark.parametrize("text", [None, *BAD_FILES.values()], ids=["ok", *BAD_FILES])
def test_the_collector_is_enabled_after_the_load(text, tmp_path):
    path = write(tmp_path, json.dumps(long_table()) if text is None else text)
    assert gc.isenabled()
    if text is None:
        load_scenario(path)
    else:
        with pytest.raises(ScenarioError):
            load_scenario(path)
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled(tmp_path):
    path = write(tmp_path, json.dumps(long_table()))
    gc.disable()
    try:
        scenario = load_scenario(path)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert scenario.spec.order == ORDER
