"""Command-line entry point.

Subcommands: run-amp, state-evolution, universality, bcp-check, graph-lemma
and tensor-eval. All but tensor-eval take --config (JSON mirroring the
ExperimentConfig field names) plus the shared flags --seed, --out and
--format; flags and per-command settings are validated like the config
file, and the output directory is checked, all before anything runs. --seed
replaces the config's seeds (its battery_seed on a tensor_checks run).
state-evolution writes the SE prediction of a sensing config's own
experiment (``harness.se_summary``), which reads signal_seed, so it exits 2
on --seed; it and universality exit 2 on a tensor_checks config.
bcp-check and graph-lemma run only their own battery and need no config.
tensor-eval takes only --network, a JSON network document written by
``tensor_net.save_network``, and reads n off the document's tensors. It
prints the contraction value, and the brute-force value with the relative
gap when the enumeration fits ``tensor_net.BUDGET_BITS``; otherwise
"bruteforce" is null and "bruteforce_skipped" gives the budget message.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import tensor_net as tn
from .exceptions import AmplabError, BudgetError, ConfigError
from .harness import (
    ExperimentConfig,
    load_config,
    run_experiment,
    se_summary,
    tensor_checks,
    universality_compare,
    write_records_csv,
    write_summary_json,
)

# subcommand -> the one tensor battery it runs
_BATTERY_OF = {"bcp-check": "bcp_diagonal_bound", "graph-lemma": "graph_lemma"}


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="path to a JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override: use this single seed")
    p.add_argument("--out", default=None,
                   help="output directory; default: the config's out, else .")
    p.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None)


def _load(args) -> ExperimentConfig:
    battery = args.command in _BATTERY_OF
    if args.seed is not None and args.command == "state-evolution":
        raise ConfigError("--seed", "state-evolution reads signal_seed, not seeds")
    if not (args.config or battery):
        raise ConfigError("--config", f"is required for {args.command}")
    cfg = load_config(args.config) if args.config else ExperimentConfig("tensor_checks")
    if battery:
        cfg = dataclasses.replace(cfg, experiment="tensor_checks")
    overrides = {"out": args.out or cfg.out or "."}
    if args.seed is not None and cfg.experiment == "tensor_checks":
        overrides["battery_seed"] = args.seed
    elif args.seed is not None:
        overrides["seeds"] = [args.seed]
    if args.fmt:
        overrides["fmt"] = args.fmt
    _require_out_dir(overrides["out"])
    return dataclasses.replace(cfg, **overrides)


def _require_out_dir(out: str) -> None:
    """ConfigError("--out") unless out is a writable directory or one can be
    made there: its nearest existing ancestor is a writable directory. The
    directory itself is made only when there is something to write."""
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise ConfigError("--out", f"{path!r} is not a writable directory")


def _emit(cfg: ExperimentConfig, records, summary, stem: str):
    os.makedirs(cfg.out, exist_ok=True)
    if records is not None and cfg.fmt == "csv":
        path = os.path.join(cfg.out, f"{stem}.csv")
        write_records_csv(path, records)
        print(f"wrote {path}")
    path = os.path.join(cfg.out, f"{stem}_summary.json")
    write_summary_json(path, summary)
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="amplab")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("run-amp", "state-evolution", "universality", *_BATTERY_OF):
        sp = sub.add_parser(name)
        _common_flags(sp)

    sp = sub.add_parser("tensor-eval")
    sp.add_argument("--network", required=True, help="JSON network file saved by save_network")

    args = parser.parse_args(argv)
    try:
        if args.command == "tensor-eval":
            graph, labeling = tn.load_network(args.network)
            fast = tn.eval_value_contraction(graph, labeling)
            try:
                brute = tn.eval_value_bruteforce(graph, labeling)
            except BudgetError as exc:
                report = {"contraction": fast, "bruteforce": None, "bruteforce_skipped": str(exc)}
            else:
                report = {"bruteforce": brute, "contraction": fast,
                          "relative_gap": abs(brute - fast) / max(abs(brute), 1.0)}
            print(json.dumps(report, indent=2))
            return 0
        cfg = _load(args)
        if args.command == "run-amp":
            records, summary = run_experiment(cfg)
            _emit(cfg, records, summary, "results")
        elif args.command == "state-evolution":
            _emit(cfg, None, se_summary(cfg), "state_evolution")
        elif args.command == "universality":
            _emit(cfg, None, universality_compare(cfg), "universality")
        else:
            report = tensor_checks(cfg, [_BATTERY_OF[args.command]])
            _emit(cfg, None, report, args.command.replace("-", "_"))
    except AmplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
