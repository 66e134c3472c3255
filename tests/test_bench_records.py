"""Every BENCH_*.json at the repository root stays machine-readable.

A speed claim counts only if a committed BENCH_*.json backs it, so each one
must load as a JSON object that says what it measured, between which
commits, with which command and by which protocol.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("what", "parent", "change", "command", "protocol")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_loads_with_its_required_keys(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert [key for key in REQUIRED if key not in record] == []
