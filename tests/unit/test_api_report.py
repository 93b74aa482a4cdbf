"""``RunReport`` serialization: the schema gate and the optional fields."""

from __future__ import annotations

import json

import pytest

from repro.api.config import RunConfig
from repro.api.report import REPORT_SCHEMA_VERSION, RunReport
from repro.core.exceptions import ModelError


def _report(**overrides):
    fields = dict(
        scenario="fig6b",
        config=RunConfig(),
        results={"rows": [{"hpd": "5", "opt": 1.5}]},
        params={"n": 3},
        kernels={"sfp": "array", "sched": "flat"},
        cache={"hits": 4, "misses": 2},
        timings={"total_s": 0.25},
        text="table",
    )
    fields.update(overrides)
    return RunReport(**fields)


def test_json_round_trip_is_lossless():
    report = _report()
    assert RunReport.from_json(report.to_json()) == report


def test_json_carries_the_schema_version_with_sorted_keys():
    payload = _report().to_json()
    data = json.loads(payload)
    assert data["schema"] == REPORT_SCHEMA_VERSION
    assert list(data) == sorted(data)
    assert payload == json.dumps(data, indent=2, sort_keys=True)


@pytest.mark.parametrize("schema", [None, 0, REPORT_SCHEMA_VERSION + 1, "1"])
def test_other_schema_versions_are_rejected(schema):
    data = _report().to_dict()
    if schema is None:
        del data["schema"]
    else:
        data["schema"] = schema
    with pytest.raises(ModelError, match="Unsupported RunReport schema"):
        RunReport.from_dict(data)


def test_optional_fields_default_when_absent():
    data = _report().to_dict()
    for key in ("params", "kernels", "cache", "timings", "text"):
        del data[key]
    report = RunReport.from_dict(data)
    assert report == _report(params={}, kernels={}, cache={}, timings={}, text="")


def test_to_dict_copies_the_mappings():
    report = _report()
    data = report.to_dict()
    data["kernels"]["sfp"] = "reference"
    data["cache"]["hits"] = 0
    assert report.kernels["sfp"] == "array"
    assert report.cache["hits"] == 4
