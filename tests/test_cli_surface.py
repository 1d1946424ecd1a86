"""The command-line surface, pinned: every subcommand's flags, their defaults,
and which of them an environment variable feeds.

A flag or variable that is added, renamed or given a new default fails here,
so such a change is made on purpose, with this table and the docs."""

import argparse
import dataclasses
import re

from blockfer import cli
from blockfer.bench import ExperimentConfig

UNSET = argparse.SUPPRESS
MIB_250 = 250 * 2**20
CIPHERS = ("identity", "sealed")
LINK = {"--jitter-ms": (0.0, False, None), "--reorder": (0.0, False, None),
        "--duplicate": (0.0, False, None)}
TRANSFER = {
    "--block-size": (None, False, None),
    "--window": (80, False, None),
    "--interval-ms": (2000.0, False, None),
    "--attempts": (5, False, None),
    "--max-size": (MIB_250, False, None),
    "--cipher": ("identity", False, CIPHERS),
    "--key": (None, False, None),
    "--peer-key": (None, False, None),
    "--seed": (None, False, None),
}

# option (or positional dest) -> (default, required, choices), per subcommand
SURFACE = {
    "send": {"--to": (None, True, None), "--info": (None, False, None),
             **TRANSFER, "file": (None, True, None)},
    "recv": {"--port": (None, True, None), "--bind": ("127.0.0.1", False, None),
             "--out": (None, True, None), "--wait-s": (None, False, None), **TRANSFER},
    "sweep": {"--csv": ("sweep.csv", False, None), "--blocks": (UNSET, False, None),
              "--windows": (UNSET, False, None), "--iterations": (UNSET, False, None),
              "--data-size": (UNSET, False, None), "--loss": (0.01, False, None),
              "--latency-ms": (20.0, False, None), **LINK,
              "--interval-ms": (UNSET, False, None), "--attempts": (UNSET, False, None),
              "--seed": (0, False, None)},
    "eval": {"--mode": ("sim", False, ("sim", "loopback")),
             "--size": (MIB_250, False, None), "--block-size": (1200, False, None),
             "--window": (80, False, None), "--reps": (10, False, None),
             "--loss": (0.0, False, None), "--latency-ms": (0.0, False, None), **LINK,
             "--interval-ms": (2000.0, False, None), "--attempts": (5, False, None),
             "--seed": (0, False, None)},
    "keygen": {"--out": (None, True, None)},
}


def subcommands() -> dict:
    """Each subcommand's actions by option string (a positional by its dest)."""
    parser = cli._build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {(a.option_strings[0] if a.option_strings else a.dest): a
                   for a in subparser._actions if not isinstance(a, argparse._HelpAction)}
            for name, subparser in sub.choices.items()}


def env_name(option: str) -> str:
    return cli.ENV_PREFIX + option.lstrip("-").replace("-", "_").upper()


def test_every_flag_default_and_choice_is_pinned():
    seen = {name: {option: (action.default, action.required,
                            tuple(action.choices) if action.choices else None)
                   for option, action in actions.items()}
            for name, actions in subcommands().items()}
    assert seen == SURFACE


def test_sweep_flags_left_unset_are_experiment_config_fields():
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    unset = [a.dest for a in subcommands()["sweep"].values() if a.default == UNSET]
    assert len(unset) == 6 and set(unset) <= fields


def documented_env_flags() -> set:
    """(subcommand, flag) pairs that the cli module docstring says a
    BLOCKFER_<NAME> variable feeds."""
    block = cli.__doc__.split("e.g. BLOCKFER_BLOCK_SIZE=600:\n\n")[1].split("\n\n")[0]
    pairs, names = set(), []
    for line in block.splitlines():
        match = re.match(r"  (\S.*?)\s{2,}(--.*)", line)
        if match:  # a line that names its subcommands, then their flags
            names, line = [name.strip() for name in match[1].split(",")], match[2]
        for owner, flag in re.findall(r"(?:(\w+)'s )?(--[\w-]+)", line):
            pairs.update((name, flag) for name in ([owner] if owner else names))
    return pairs


def test_environment_feeds_exactly_the_documented_flags(monkeypatch):
    baseline = subcommands()
    names = {env_name(option) for actions in baseline.values()
             for option in actions if option.startswith("--")}
    fed = set()
    for name in sorted(names):
        monkeypatch.setenv(name, "71")
        for command, actions in subcommands().items():
            for option, action in actions.items():
                if action.default != baseline[command][option].default:
                    assert env_name(option) == name, (command, option)
                    fed.add((command, option))
        monkeypatch.delenv(name)
    assert fed == documented_env_flags()
    assert len(fed) == 9 + 9 + 1 + 2 + 5
