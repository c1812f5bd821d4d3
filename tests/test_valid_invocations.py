"""Every invocation of the byte-identity corpus `valid_invocations.json`,
replayed through in-process `main` in one fresh directory: the same exit
code, the same stdout and stderr bytes and the same bytes in each file it
writes. `record_valid.py` records the corpus and names the invocations."""

import json

import pytest

from .record_valid import CASES, CORPUS, make_files, run_corpus

RECORDED = json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    """The records of a replay of every case in order, by argv."""
    work = tmp_path_factory.mktemp("valid")
    return {tuple(rec["argv"]): rec for rec in run_corpus(RECORDED["files"], work)}


def test_the_corpus_holds_every_case_and_the_files_they_read():
    assert [case["argv"] for case in RECORDED["cases"]] == CASES
    assert RECORDED["files"] == make_files()


@pytest.mark.parametrize("case", RECORDED["cases"], ids=lambda case: " ".join(case["argv"]))
def test_a_recorded_invocation_gives_the_same_bytes(replayed, case):
    assert replayed[tuple(case["argv"])] == case
