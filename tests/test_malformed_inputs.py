"""Every recorded malformed-input case, replayed from the table
`malformed_inputs.json` through in-process `main`: the same exit code
and the same stderr line, byte for byte, and no file written or changed.
`record_malformed.py` records the table and names the cases."""

import json

import pytest

from .record_malformed import CASES, TABLE, file_digests, make_files, run_case, write_files

RECORDED = json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("malformed")
    write_files(RECORDED["files"], work)
    return work


def test_the_table_holds_every_case_and_the_files_they_read():
    assert [case["argv"] for case in RECORDED["cases"]] == CASES
    assert RECORDED["files"] == make_files()


@pytest.mark.parametrize("case", RECORDED["cases"], ids=lambda case: " ".join(case["argv"]))
def test_a_recorded_case_gives_its_exit_code_and_stderr_line(inputs, monkeypatch, case):
    monkeypatch.chdir(inputs)
    before = file_digests(inputs)
    code, _, stderr = run_case(case["argv"])
    assert (code, stderr) == (case["exit"], case["stderr"])
    assert file_digests(inputs) == before
