"""Every case of the byte-identity corpus `corpus.json`, replayed in order
in one fresh directory through in-process `main`: the same exit code, the
same stderr, byte for byte, and the same bytes on stdout and in each file it
writes. On the replay it also checks that twins (cases that differ only in
`--parallel 2` and in the names of the files they write) give the same
bytes, that a refused case writes and prints nothing, that each written CSV
starts with the version line and holds no carriage return, and that each
written JSON file is what `json.dumps(..., sort_keys=True, indent=2)` writes.
`record_corpus.py` records the corpus and names the cases.

The replay runs under a line trace of `src/acdsim`: each line of a function
body there is run by some case or listed in `UNRUN` with a reason from
`REASONS`, and a line a command can reach gets a case, not an entry. When
the list is out of date, the test prints each entry to set or drop. The
list is checked on `UNRUN_PYTHON` alone: which lines a function's code
holds, and which of them the tracer reports, can differ between CPython
versions.

    python -m tests.test_corpus

replays the same corpus with the same checks through the installed
`acdsim`, one process per case, and exits 1 on any difference.
"""

import inspect
import json
import sys
import tempfile
import types
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

import acdsim
from acdsim._util import sha256_hex
from acdsim.cli import main

from . import record_corpus
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


SRC = Path(acdsim.__file__).parent

# Why no command runs a line of `src/acdsim`, by the reason each UNRUN entry gives
REASONS = {
    "hidden": "an earlier check refuses every input that would reach it",
    "reference": "the tests and bench/ compute their enumeration reference with it",
    "bench": "only bench/ calls it",
    "candidates": "no command sets LoopConfig.candidates",
    "library": "public for library callers' models",
    "fault net": "no input makes it fire",
}

# (module, function, stripped line, how many such lines, reason) of the
# function-body lines of `src/acdsim` that the replay leaves unrun, as
# CPython UNRUN_PYTHON numbers them
UNRUN_PYTHON = (3, 11)
UNRUN = [
    ('causal', 'Cgm.__post_init__', 'extra = next(v for v in cpts if v not in index)', 1, 'hidden'),
    ('causal', 'Cgm.__post_init__',
     'raise SpecError(f"CPT key {extra} is not a model variable")', 1, 'hidden'),
    ('causal', 'Cgm.__post_init__',
     'raise SpecError(f"latent {v} is not a model variable")', 1, 'hidden'),
    ('causal', 'Cgm.__post_init__',
     'raise SpecError(f"slice of {v} must be an int >= 0 or None, got {at!r}")', 1, 'hidden'),
    ('causal', 'Cgm.__post_init__',
     'raise SpecError(f"variable {i} must have a non-empty str name, got {name!r}")',
     1, 'hidden'),
    ('causal', 'DbnEngine._forward', 'return None', 1, 'hidden'),
    ('causal', 'DbnEngine._weights', 'return None', 1, 'hidden'),
    ('causal', 'DbnEngine.frame_likelihoods',
     'raise SpecError(f"emission noise must be in [0,1], got {miss}, {false_pos}")', 1, 'hidden'),
    ('causal', 'DbnEngine.frame_likelihoods',
     'raise SpecError(f"{len(frames)} frames for a model of {self.T} slices")', 1, 'hidden'),
    ('causal', '_check_assignment',
     'raise SpecError(f"{what} refers to unknown variable {v}")', 1, 'hidden'),
    ('causal', '_check_assignment',
     'raise SpecError(f"{what} value for {v} must be 0 or 1")', 1, 'hidden'),
    ('config', 'LoopConfig.__post_init__',
     'raise SpecError(f"emission noise must be in [0,1], got {tuple(self.emission)}")',
     1, 'hidden'),
    ('detect', 'classify', 'f"{len(seq.frames)} frames")', 1, 'hidden'),
    ('detect', 'classify',
     'raise SpecError(f"model has {engine.T} slices but the sequence has "', 1, 'hidden'),
    ('game', '_check_defender_action',
     'raise IllegalActionError(f"unknown defender action kind \'{d.kind}\'")', 1, 'hidden'),
    ('game', '_check_defender_action',
     'raise IllegalActionError(f"nop on node {d.node!r}, which is not an int")', 1, 'hidden'),
    ('game', 'step', 'raise TerminalStateError(f"episode ended: {st.terminal}")', 1, 'hidden'),
    ('netmodel', 'NetworkTopology.neighbors',
     'raise UnknownNodeError(f"no node with id {node_id}")', 1, 'hidden'),
    ('netmodel', 'NetworkTopology.node', 'except KeyError:', 1, 'hidden'),
    ('netmodel', 'NetworkTopology.node',
     'raise UnknownNodeError(f"no node with id {node_id}") from None', 1, 'hidden'),
    ('netmodel', 'NetworkTopology.target_id',
     'raise ValidationError("exactly one target: scenario has none")', 1, 'hidden'),
    ('netmodel', 'validate_scenario',
     'problems.append(f"{name} must be finite, got {value}")', 1, 'hidden'),
    ('config', 'LoopConfig.__post_init__',
     'raise SpecError("candidate intervention list is empty")', 1, 'candidates'),
    ('loop', 'map_intervention_to_action', 'return NOP', 1, 'candidates'),
    ('causal', 'attach_emissions', 'continue', 1, 'reference'),
    ('causal', 'attach_emissions', 'cpts = dict(m.cpts)', 1, 'reference'),
    ('causal', 'attach_emissions', 'cpts[obs] = (false_pos, 1.0 - miss)', 1, 'reference'),
    ('causal', 'attach_emissions', 'for v in m.variables:', 1, 'reference'),
    ('causal', 'attach_emissions', 'if v in m.latent or v.slice is None:', 1, 'reference'),
    ('causal', 'attach_emissions', 'obs = emission_var(v)', 1, 'reference'),
    ('causal', 'attach_emissions', 'parents = dict(m.parents)', 1, 'reference'),
    ('causal', 'attach_emissions', 'parents[obs] = (v,)', 1, 'reference'),
    ('causal', 'attach_emissions',
     'return Cgm(variables=tuple(variables), parents=parents, cpts=cpts, latent=m.latent)',
     1, 'reference'),
    ('causal', 'attach_emissions', 'variables = list(m.variables)', 1, 'reference'),
    ('causal', 'attach_emissions', 'variables.append(obs)', 1, 'reference'),
    ('causal', 'emission_var', 'return VarId(f"{v.name}_obs", v.slice)', 1, 'reference'),
    ('loop', 'LoopReport.to_json', 'return indented_json(self.to_obj())', 1, 'bench'),
    ('causal', 'DbnEngine.posteriors',
     'own = np.concatenate([row[n:] / row[0] for row in rows])', 1, 'library'),
    ('causal', 'DbnEngine.posteriors',
     'rows = [(a * b).reshape(-1) @ r for a, b, r in zip(alphas, betas, self._readout)]',
     1, 'library'),
    ('detect', '_null_loglik',
     'raise SpecError("the benign model must be benign_model_like(malign), and every "',
     1, 'library'),
    ('_util', '_emit',
     'raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")',
     1, 'fault net'),
    ('cli', 'main', '_emit_error(type(exc).__name__, str(exc))', 1, 'fault net'),
    ('cli', 'main', 'except OSError as exc:', 1, 'fault net'),
    ('cli', 'main', 'return EXIT_CONFIG', 1, 'fault net'),
]


def function_lines(path: Path) -> dict[tuple[str, int], str]:
    """{(function, line number): stripped line} of every line of a function
    body in the module at `path` that holds code, but for the `def` line. A
    comprehension or lambda counts in the function it is in; one outside a
    function does not count (a comprehension there runs at import)."""
    source = path.read_text(encoding="utf-8")
    text, lines = source.splitlines(), {}

    def walk(code, name: str, in_function: bool):
        for inner in (c for c in code.co_consts if isinstance(c, types.CodeType)):
            folded = inner.co_name.startswith("<")  # a comprehension or a lambda
            function = folded or bool(inner.co_flags & inspect.CO_OPTIMIZED)
            if folded and not in_function:
                continue
            own = name if folded else f"{name}.{inner.co_name}".lstrip(".")
            if function:
                lines.update({(own, n): text[n - 1].strip() for *_, n in inner.co_lines()
                              if n is not None and (folded or n != inner.co_firstlineno)})
            walk(inner, own, in_function or function)

    walk(compile(source, str(path), "exec"), "", False)
    return lines


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    """(the directory of a replay of every case in order, its records, the (file,
    line number) pairs of `src/acdsim` it ran under a line trace of each case's
    `main`). A tracer set before, such as a debugger's or coverage's, is set again."""
    work = tmp_path_factory.mktemp("corpus")
    files, ran = {str(path) for path in SRC.glob("*.py")}, set()

    def trace_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_line

    def trace_call(frame, event, arg):
        return trace_line if frame.f_code.co_filename in files else None

    def traced_main(argv):
        before = sys.gettrace()
        sys.settrace(trace_call)
        try:
            return main(argv)
        finally:
            sys.settrace(before)

    with mock.patch.object(record_corpus, "main", traced_main):
        return work, run_corpus(RECORDED["files"], work), ran


def test_the_corpus_holds_every_case_and_the_files_they_read():
    assert [case["argv"] for case in RECORDED["cases"]] == CASES
    assert RECORDED["files"] == make_files()


@pytest.mark.parametrize("i", range(len(RECORDED["cases"])),
                         ids=[" ".join(case["argv"]) for case in RECORDED["cases"]])
def test_a_recorded_case_gives_the_same_exit_stderr_and_bytes(replayed, i):
    assert replayed[1][i] == RECORDED["cases"][i]


@pytest.mark.parametrize("invariant", INVARIANTS, ids=lambda invariant: invariant.__name__)
def test_the_replay_breaks_no_invariant(replayed, invariant):
    directory, records, _ = replayed
    assert invariant(records, directory) == []


@pytest.mark.skipif(sys.version_info[:2] != UNRUN_PYTHON,
                    reason="UNRUN lists the lines as CPython %d.%d numbers them" % UNRUN_PYTHON)
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_the_replay_runs_every_line_but_those_unrun_lists(replayed, path):
    unrun = Counter((path.stem, function, text)
                    for (function, n), text in function_lines(path).items()
                    if (str(path), n) not in replayed[2])
    listed = {entry[:3]: entry for entry in UNRUN if entry[0] == path.stem}
    fixes = [f"drop {listed[key]!r}," if not unrun[key] else
             f"set {(*key, unrun[key], listed[key][4] if key in listed else 'REASON')!r},"
             for key in sorted(unrun.keys() | listed.keys())
             if unrun[key] != (listed[key][3] if key in listed else 0)]
    assert fixes == [], "UNRUN is out of date; in its list:\n" + "\n".join(fixes)
    assert {entry[4] for entry in listed.values()} <= REASONS.keys()


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
