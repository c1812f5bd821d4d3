"""Every case of the byte-identity corpus `corpus.json`, replayed in order
in one fresh directory through in-process `main`: the same exit code, the
same stderr, byte for byte, and the same bytes on stdout and in each file it
writes. On the replay it also checks that twins (cases that differ only in
`--parallel 2` and in the names of the files they write) give the same
bytes, that a refused case writes and prints nothing, that each written CSV
starts with the version line and holds no carriage return, and that each
written JSON file is what `json.dumps(..., sort_keys=True, indent=2)` writes.
`record_corpus.py` records the corpus and names the cases.

    python -m tests.test_corpus

replays the same corpus with the same checks through the installed
`acdsim`, one process per case, and exits 1 on any difference.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from acdsim._util import sha256_hex

from .record_corpus import CASES, CORPUS, make_files, run_corpus

RECORDED = json.loads(CORPUS.read_text(encoding="utf-8"))
OUTPUT_OPTIONS = ("--out", "--curve", "--indicators-out")
NO_OUTPUT = sha256_hex("")


def _twin_key(argv: list[str]) -> tuple[tuple, bool]:
    """`argv` with its output file names blanked and without `--parallel 2`,
    and whether it held `--parallel 2`."""
    key = [None if before in OUTPUT_OPTIONS else word
           for before, word in zip(["", *argv], argv)]
    for i in range(len(key) - 1):
        if key[i:i + 2] == ["--parallel", "2"]:
            return tuple(key[:i] + key[i + 2:]), True
    return tuple(key), False


def _output_bytes(record: dict) -> tuple:
    argv = record["argv"]
    return (record["exit"], record["stderr"], record["stdout_sha256"],
            *[record["written"].get(name) for before, name in zip(argv, argv[1:])
              if before in OUTPUT_OPTIONS])


def twins_differ(records: list[dict], directory) -> list[str]:
    twins = {}
    for record in records:
        key, parallel = _twin_key(record["argv"])
        twins.setdefault(key, []).append((parallel, record))
    faults = []
    for group in twins.values():
        if len({_output_bytes(record) for _, record in group}) > 1:
            faults.append("twins differ: " + " | ".join(" ".join(r["argv"]) for _, r in group))
        if all(parallel for parallel, _ in group):
            faults.append("no serial twin: " + " ".join(group[0][1]["argv"]))
    return faults


def refusals_write(records: list[dict], directory) -> list[str]:
    return [f"refused but wrote {sorted(record['written'])} or printed: {' '.join(record['argv'])}"
            for record in records if record["exit"] != 0
            and (record["written"] or record["stdout_sha256"] != NO_OUTPUT)]


def _written(records: list[dict], directory, suffix: str) -> list[Path]:
    return [Path(directory, name) for name in sorted({name for record in records
                                                      for name in record["written"]})
            if name.endswith(suffix)]


def csv_unversioned(records: list[dict], directory) -> list[str]:
    faults = []
    for path in _written(records, directory, ".csv"):
        data = path.read_bytes()
        if not data.startswith(b"# acdsim ") or b"\r" in data:
            faults.append(f"{path.name} does not start with '# acdsim ' or holds a CR")
    return faults


def json_unindented(records: list[dict], directory) -> list[str]:
    faults = []
    for path in _written(records, directory, ".json"):
        text = path.read_text(encoding="utf-8")
        if text != json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n":
            faults.append(f"{path.name} is not what json.dumps writes")
    return faults


INVARIANTS = [twins_differ, refusals_write, csv_unversioned, json_unindented]


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    """(the directory of a replay of every case in order, its records)."""
    work = tmp_path_factory.mktemp("corpus")
    return work, run_corpus(RECORDED["files"], work)


def test_the_corpus_holds_every_case_and_the_files_they_read():
    assert [case["argv"] for case in RECORDED["cases"]] == CASES
    assert RECORDED["files"] == make_files()


@pytest.mark.parametrize("i", range(len(RECORDED["cases"])),
                         ids=[" ".join(case["argv"]) for case in RECORDED["cases"]])
def test_a_recorded_case_gives_the_same_exit_stderr_and_bytes(replayed, i):
    assert replayed[1][i] == RECORDED["cases"][i]


@pytest.mark.parametrize("invariant", INVARIANTS, ids=lambda invariant: invariant.__name__)
def test_the_replay_breaks_no_invariant(replayed, invariant):
    directory, records = replayed
    assert invariant(records, directory) == []


def replay_through(command: list[str]) -> int:
    """Replay the corpus through `command` and print each difference and
    broken invariant; 1 if there is any, else 0."""
    with tempfile.TemporaryDirectory() as work:
        records = run_corpus(RECORDED["files"], work, command=command)
        faults = [f"{' '.join(want['argv'])}: gave {got}, recorded {want}"
                  for got, want in zip(records, RECORDED["cases"]) if got != want]
        faults += [fault for invariant in INVARIANTS for fault in invariant(records, work)]
    for fault in faults:
        print(fault, file=sys.stderr)
    print(f"{len(records)} cases replayed, {len(faults)} differences or broken invariants")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(replay_through(["acdsim"]))
