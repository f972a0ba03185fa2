"""Every benchmark record at the root of the repository carries the fields its readers compare.

A ``BENCH_<n>.json`` record gives before-and-after numbers of one change; they
can be compared only with the core count and the rational backend they were
measured with, and against the commit they were measured from.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_benchmark_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_benchmark_record_names_its_machine_and_parent(path):
    record = json.loads(path.read_text())
    machine = record["machine"]
    assert type(machine["nproc"]) is int and machine["nproc"] >= 1
    assert isinstance(machine["rational_backend"], str) and machine["rational_backend"]
    assert isinstance(record["parent_commit"], str) and record["parent_commit"]
