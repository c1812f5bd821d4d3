"""Command line front end.

One binary, subcommand style: simulate / train / evaluate / causal / detect /
loop / replay. All randomness flows from --seed, so identical invocations
produce identical output bytes. Errors are reported as a single JSON object
on stderr; exit codes: 0 success, 2 configuration or parse error, 3 runtime
error, 4 replay mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import fields
from importlib import resources

from . import __version__
from . import agents, config, game, netmodel
from ._util import indented_json, left_sum, parse_json, typed, versioned_csv
from .errors import AcdError, ParseError, ReplayMismatchError, SpecError, ValidationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_REPLAY_MISMATCH = 4

METRIC_COLUMNS = "episode,seed,steps,return,terminal,time_to_target"


def default_scenario_path() -> str:
    """The 8-node enterprise scenario shipped with the package."""
    return str(resources.files("acdsim").joinpath("data/enterprise8.json"))


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write_all(outputs: list[tuple[str | None, str]]):
    """Write each (path, text) a command returned: the files in order, then
    the texts of path None or "-" to stdout in order. A file that cannot be
    written is a parse error, and then every file this call created is
    removed and nothing is printed; a file that existed before is written
    in place, never renamed over, so `--out /dev/null` stays a device."""
    created = []
    try:
        for path, text in outputs:
            if path not in (None, "-"):
                if not os.path.lexists(path):
                    created.append(path)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
    except OSError as exc:
        for name in created:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
        raise ParseError(f"cannot write {path}: {exc}") from None
    for path, text in outputs:
        if path in (None, "-"):
            sys.stdout.write(text)


def _summary(**values) -> tuple[None, str]:
    """The one-line JSON summary that a command prints last."""
    return None, json.dumps({"version": __version__, **values}, sort_keys=True) + "\n"


def _load_scenario(args) -> netmodel.Scenario:
    path = args.scenario or default_scenario_path()
    return netmodel.load_scenario(_read(path), lenient=getattr(args, "lenient", False))


def _make_defender(spec: str):
    if spec == "nop":
        return agents.NopDefender()
    if spec == "random":
        return agents.RandomDefender()
    if spec.startswith("q:"):
        table = agents.QTable.load(_read(spec[2:]))
        return agents.QDefender(table, training=False)
    raise ParseError(f"unknown defender '{spec}' (want nop, random or q:FILE)")


def _load_dbn_spec(path: str | None) -> config.DbnSpec:
    if path is None:
        return config.LoopConfig().dbn
    from .causal import load_spec
    return load_spec(_read(path))


def _parse_noise(text: str) -> config.EmissionNoise:
    try:
        miss, false_pos = (float(p) for p in text.split(","))
        if not (0.0 <= miss <= 1.0 and 0.0 <= false_pos <= 1.0):  # also refuses NaN
            raise ValueError
    except ValueError:
        raise ParseError(f"--noise wants miss,false_pos in [0,1], got '{text}'") from None
    return config.EmissionNoise(miss, false_pos)


def _mean(values: list) -> float:
    return left_sum(values) / len(values) if values else 0.0


def _episode_seeds(args) -> list[int]:
    """--seed, --seed + 1, ... for each of --episodes; a negative count, or
    a --parallel below 1, is refused."""
    if args.episodes < 0:
        raise ParseError(f"--episodes must be >= 0, got {args.episodes}")
    if args.parallel < 1:
        raise ParseError(f"--parallel must be >= 1, got {args.parallel}")
    return [args.seed + i for i in range(args.episodes)]


def _map_seeds(fn, common: tuple, seeds: list[int], parallel: int) -> list:
    """[fn(*common, seed) for seed in seeds], over up to `parallel` worker
    processes, never more than there are seeds or CPUs; results keep seed
    order either way. Tasks go out in about four chunks per worker, and a
    chunk pickles the parsed objects in `common` once, not once per seed."""
    workers = min(parallel, len(seeds), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*common, seed) for seed in seeds]
    from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *[[c] * len(seeds) for c in common], seeds,
                             chunksize=-(-len(seeds) // (4 * workers))))


# ---------------------------------------------------------------------------
# Subcommands: each returns its outputs, for `main` to write (`_write_all`)
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> list:
    scenario = _load_scenario(args)
    defender = _make_defender(args.defender)
    if args.attacker != "lateral":
        raise ParseError(f"unknown attacker '{args.attacker}'")
    attacker = agents.LateralAttacker(scenario.attacker.spread)
    log = game.run_episode(scenario, defender, attacker, args.seed,
                           horizon_override=args.horizon)
    return [(args.out, game.episode_to_jsonl(log)), _summary(**{
        "terminal": log.final["terminal"], "steps": log.final["t"], "return": log.total_reward(),
    })]


def cmd_train(args) -> list:
    scenario = _load_scenario(args)
    try:
        params = agents.LearningParams(
            alpha=args.alpha, gamma=args.gamma,
            epsilon_start=args.epsilon_start, epsilon_end=args.epsilon_end,
            epsilon_decay=args.epsilon_decay, episodes=args.episodes,
        )
    except SpecError as exc:
        raise ParseError(f"bad learning parameter: {exc}") from None
    table, curve = agents.train(scenario, params, args.seed)
    outputs = [(args.out, table.save() + "\n")]
    if args.curve:
        outputs.append((args.curve, agents.curve_to_csv(curve)))
    mean_tail = (left_sum(curve[-100:]) / min(len(curve), 100)) if curve else 0.0
    return [*outputs, _summary(episodes=len(curve), keys=len(table.values),
                               mean_return_last_100=mean_tail)]


def _evaluate_episode(scenario: netmodel.Scenario, table: agents.QTable, seed: int) -> dict:
    (log,) = agents.evaluate(scenario, table, 1, seed)
    return {
        "seed": seed,
        "steps": log.final["t"],
        "return": log.total_reward(),
        "terminal": log.final["terminal"],
        "time_to_target": log.time_to_target(),
    }


def cmd_evaluate(args) -> list:
    scenario = _load_scenario(args)
    table = agents.QTable.load(_read(args.qtable))
    seeds = _episode_seeds(args)
    rows = _map_seeds(_evaluate_episode, (scenario, table), seeds, args.parallel)
    for i, row in enumerate(rows):
        row["episode"] = i
    summary = {
        "episodes": len(rows),
        "mean_return": _mean([r["return"] for r in rows]),
        "mean_steps": _mean([r["steps"] for r in rows]),
        "compromise_rate": _mean([r["terminal"] == game.TARGET_COMPROMISED for r in rows]),
        "mean_time_to_target": _mean([r["time_to_target"] for r in rows]),
    }
    if args.format == "csv":
        return [(args.out, versioned_csv(METRIC_COLUMNS, (
            [row[k] for k in METRIC_COLUMNS.split(",")] for row in rows)))]
    return [(args.out, indented_json({
        "version": __version__, "episodes": rows, "summary": summary,
    }) + "\n")]


def cmd_causal(args) -> list:
    from . import causal
    if args.causal_cmd == "build":
        params = causal.DbnParams(**{f.name: getattr(args, f.name)
                                     for f in fields(causal.DbnParams)})
        schedule = None
        if args.schedule:
            switch = {"0": False, "1": True, "false": False, "true": True}
            try:
                schedule = tuple(switch[tok.strip()] for tok in args.schedule.split(","))
            except KeyError as exc:
                raise ParseError(f"--schedule entries must be 0, 1, true or false, "
                                 f"got {exc}") from None
        spec = causal.DbnSpec(causal.Topology(args.topology), args.slices,
                              schedule=schedule, params=params)
        try:
            model = causal.build_topology(spec)
        except SpecError as exc:
            raise ParseError(f"bad build option: {exc}") from None
        return [(args.out, causal.save_model(model) + "\n")]

    model = causal.load_model(_read(args.model))
    if args.causal_cmd == "marginal":
        value = causal.marginal(model, causal.parse_assignment(model, args.query))
    elif args.causal_cmd == "observational":
        value = causal.observational(
            model,
            causal.parse_assignment(model, args.target),
            causal.parse_assignment(model, args.given or ""),
        )
    else:
        value = causal.interventional(
            model,
            causal.parse_assignment(model, args.target),
            causal.parse_assignment(model, args.do),
            causal.parse_assignment(model, args.given or ""),
        )
    return [(None, format(value, "#.12g") + "\n")]


def cmd_detect(args) -> list:
    from . import causal, detect
    if math.isnan(args.threshold):
        raise ParseError("--threshold must be a number, got nan")
    log = game.parse_episode_jsonl(game.extract_episode_jsonl(_read(args.log)))
    noise = _parse_noise(args.noise)
    seq = detect.extract_indicators(log, noise, args.seed)
    spec = _load_dbn_spec(args.dbn).with_slices(len(seq.frames))
    malign = causal.build_topology(spec)
    benign = detect.benign_model_like(malign)
    result = detect.classify(seq, benign, malign, noise, threshold=args.threshold)
    indicators = [(args.indicators_out, detect.sequence_to_csv(seq))] if args.indicators_out else []
    return [*indicators, (args.out, result.to_json() + "\n")]


def _load_approvals(spec: str):
    """For `--approve`, a picklable factory of an episode's approval decisions,
    called once per episode so that each starts at the first decision."""
    if spec == "always":
        return functools.partial(itertools.repeat, True)
    if spec == "never":
        return tuple
    if spec.startswith("file:"):
        decisions = typed(parse_json(_read(spec[5:]), "approval file"), [bool], "approvals")
        return functools.partial(tuple, decisions)
    raise ParseError(f"unknown approver '{spec}' (want always, never or file:PATH)")


def _run_loop_episode(scenario: netmodel.Scenario, cfg: config.LoopConfig, new_approvals,
                      seed: int) -> dict:
    from . import loop  # here too, for workers that start from a fresh import
    return loop.run_loop(scenario, cfg, seed, approvals=new_approvals()).to_obj()


def cmd_loop(args) -> list:
    scenario = _load_scenario(args)
    dbn = _load_dbn_spec(args.dbn)
    new_approvals = _load_approvals(args.approve)
    noise = _parse_noise(args.noise)
    try:
        cfg = config.LoopConfig(autonomy=config.AutonomyLevel(args.autonomy), tau=args.tau,
                              dbn=dbn, emission=noise, window=args.window,
                              lookahead=args.lookahead)
    except SpecError as exc:
        raise ParseError(f"bad loop option: {exc}") from None

    seeds = _episode_seeds(args)
    from . import loop  # not used here: loaded before a pool forks, workers inherit it
    reports = _map_seeds(_run_loop_episode, (scenario, cfg, new_approvals), seeds,
                         args.parallel)
    result = reports[0] if args.episodes == 1 else {"version": __version__, "reports": reports}
    return [(args.out, indented_json(result) + "\n"), _summary(
        episodes=len(reports),
        mean_time_to_target=_mean([r["summary"]["time_to_target"] for r in reports]),
        proposed=sum(r["summary"]["proposed"] for r in reports),
        applied=sum(r["summary"]["applied"] for r in reports),
    )]


def cmd_replay(args) -> list:
    if not game.verify_replay(game.extract_episode_jsonl(_read(args.log))):
        raise ReplayMismatchError("replay did not reproduce the recorded log")
    return [_summary(replay="ok")]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ParseError, so that `main` reports
    them as one JSON error object; its subparsers are of this class too."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="acdsim",
        description="Deterministic lateral-movement defence arena.",
        epilog=f"evaluate CSV columns: {METRIC_COLUMNS}",
    )
    parser.add_argument("--version", action="version", version=f"acdsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    learning = agents.LearningParams()
    loop_cfg = config.LoopConfig()

    p = sub.add_parser("simulate", help="run one episode and write its log")
    p.add_argument("--scenario", help="scenario JSON (default: bundled enterprise8)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--defender", default="nop", help="nop | random | q:FILE")
    p.add_argument("--attacker", default="lateral")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--lenient", action="store_true",
                   help="ignore unknown scenario keys")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the tabular Q defender")
    p.add_argument("--scenario")
    p.add_argument("--episodes", type=int, default=learning.episodes)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=learning.alpha)
    p.add_argument("--gamma", type=float, default=learning.gamma)
    p.add_argument("--epsilon-start", type=float, default=learning.epsilon_start)
    p.add_argument("--epsilon-end", type=float, default=learning.epsilon_end)
    p.add_argument("--epsilon-decay", type=float, default=learning.epsilon_decay)
    p.add_argument("--out", required=True, help="Q-table JSON")
    p.add_argument("--curve", help="learning curve CSV (episode,return)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run frozen-greedy episodes and report metrics")
    p.add_argument("--scenario")
    p.add_argument("--qtable", required=True)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="default stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("causal", help="build and query causal models")
    csub = p.add_subparsers(dest="causal_cmd", required=True)
    b = csub.add_parser("build", help="unroll a tactic topology into a model file")
    b.add_argument("--topology", required=True,
                   choices=[t.value for t in config.Topology])
    b.add_argument("--slices", type=int, required=True)
    b.add_argument("--schedule", help="confounded-c: comma list of 0/1 per slice")
    for f in fields(config.DbnParams):  # --spontaneous, --persistence, --edge-strength, ...
        b.add_argument("--" + f.name.replace("_", "-"), type=float, default=f.default)
    b.add_argument("--out", default=None)
    for name, needs in (("marginal", "query"), ("observational", "target"),
                        ("do", "target")):
        q = csub.add_parser(name)
        q.add_argument("--model", required=True)
        if needs == "query":
            q.add_argument("--query", required=True, help="e.g. Y=1 or Y@2=1,X@0=0")
        else:
            q.add_argument("--target", required=True)
            q.add_argument("--given", default="")
        if name == "do":
            q.add_argument("--do", required=True)
    p.set_defaults(func=cmd_causal)

    p = sub.add_parser("detect", help="classify an episode log benign vs malign")
    p.add_argument("--log", required=True, help="episode JSON-lines (or loop report)")
    p.add_argument("--dbn", help="DBN spec JSON (default: chain-a defaults)")
    p.add_argument("--noise", default=",".join(map(str, config.EmissionNoise())),
                   help="miss,false_pos")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--indicators-out", help="also write the indicator CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("loop", help="run the closed detection/mitigation loop")
    p.add_argument("--scenario")
    p.add_argument("--dbn", help="DBN spec JSON (default: chain-a defaults)")
    p.add_argument("--autonomy", default=loop_cfg.autonomy.value,
                   choices=[a.value for a in config.AutonomyLevel])
    p.add_argument("--tau", type=float, default=loop_cfg.tau)
    p.add_argument("--window", type=int, default=loop_cfg.window)
    p.add_argument("--lookahead", type=int, default=loop_cfg.lookahead)
    p.add_argument("--noise", default=",".join(map(str, loop_cfg.emission)))
    p.add_argument("--approve", default="never",
                   help="confirm level: always | never | file:decisions.json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--episodes", type=int, default=1)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("replay", help="verify a log reproduces byte-for-byte")
    p.add_argument("--log", required=True)
    p.set_defaults(func=cmd_replay)

    return parser


def _emit_error(kind: str, message: str):
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}},
                                sort_keys=True) + "\n")


def _join_signed_values(argv: list[str]) -> list[str]:
    """Spell `--noise -0.0,0.05` as `--noise=-0.0,0.05`, and so for `--tau`
    and `--threshold` values such as `-inf` and for any prefix argparse
    accepts: argparse reads a value that starts with '-' as an option unless
    it is a plain negative number, so the spaced form would lose its value."""
    joined = []
    for token in argv:
        if (joined and len(joined[-1]) > 2
                and any(o.startswith(joined[-1]) for o in ("--noise", "--tau", "--threshold"))
                and re.match(r"-([\d.]|inf|nan)", token, re.IGNORECASE)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(  # a usage error raises ParseError
            _join_signed_values(sys.argv[1:] if argv is None else argv))
        if getattr(args, "seed", 0) < 0:  # random.Random(-n) draws what random.Random(n) does
            raise ParseError(f"--seed must be >= 0, got {args.seed}")
        _write_all(args.func(args))
        return EXIT_OK
    except SystemExit as exc:  # --help and --version print their text and exit 0
        return int(exc.code or 0)
    except (ParseError, ValidationError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_CONFIG
    except ReplayMismatchError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_REPLAY_MISMATCH
    except AcdError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_RUNTIME
    except OSError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
