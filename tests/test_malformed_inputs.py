"""Every malformed-input case of the CI workflow, replayed from the recorded
table `malformed_inputs.json` through in-process `main`: the same exit code
and the same stderr line, byte for byte. `record_malformed.py` records the
table and names the cases."""

import json

import pytest

from .record_malformed import CASES, TABLE, make_files, run_case

RECORDED = json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("malformed")
    for name, text in RECORDED["files"].items():
        (work / name).write_text(text, encoding="utf-8")
    return work


def test_the_table_holds_every_case_and_the_files_they_read():
    assert [case["argv"] for case in RECORDED["cases"]] == CASES
    assert RECORDED["files"] == make_files()


@pytest.mark.parametrize("case", RECORDED["cases"], ids=lambda case: " ".join(case["argv"]))
def test_a_recorded_case_gives_its_exit_code_and_stderr_line(inputs, monkeypatch, case):
    monkeypatch.chdir(inputs)
    assert run_case(case["argv"]) == (case["exit"], case["stderr"])
