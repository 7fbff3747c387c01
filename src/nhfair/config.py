"""Engine configuration: defaults < config file < command-line flags.

Every option is declared once, as a row of :data:`OPTIONS`: its name,
its default, the subcommands that take it as a flag, its help text, and
its value type, allowed choices or check. That one declaration gives
:class:`EngineConfig` its attributes and defaults, types the config
file, validates the merged configuration, and registers each
subcommand's flags (:func:`add_flags`). The rows are named tuples,
so that no command loads ``dataclasses`` at start-up.

The config file is flat ``key = value`` text ('#' starts a comment) with
the same keys as the CLI flags. A file can be named with --config or the
NHFAIR_CONFIG environment variable. It is shared by all subcommands:
every key is typed and validated whatever the command, also one that a
flag overrides, and a command ignores the keys of the others. Every
fault in the file, a value outside its option's choices or check
included, names the file and, where there is one, its line. Everything
is validated up front so a bad configuration aborts before any
computation.

The option choices that other modules share, :data:`METRIC_NAMES` and
:data:`EQODD_VARIANTS`, are declared here with the options that take
them, so that reading the configuration loads none of the table code.
"""

from __future__ import annotations

import argparse
import io
import os
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError
from .inputs import read_text

ENV_CONFIG = "NHFAIR_CONFIG"

# The five reported metrics, in column order: the choices of ``metric``.
METRIC_NAMES = ("utility", "worst", "gap", "eqodd", "dp")
# What the eqodd column compares, the correct-classification rates or every
# rate: the choices of ``eqodd``.
EQODD_VARIANTS = ("diagonal", "full")


def _at_least(low: float) -> Callable[[float], str | None]:
    return lambda value: None if value >= low else f"must be >= {low}, got {value}"


class Option(NamedTuple):
    """A config key that is also a ``--flag`` of each of its ``commands`` (of every
    command where that is None), with the flag's ``help``, the value's ``type``, and
    its allowed ``choices`` or ``check``. ``check`` returns what is wrong with a
    value, or None; a value of None (not given) is never checked."""

    name: str
    default: object
    commands: tuple[str, ...] | None
    help: str
    type: Callable[[str], object] = str
    choices: tuple[str, ...] | None = None
    check: Callable[[object], str | None] | None = None


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _nemenyi_alpha(value: float) -> str | None:
    return None if value in (0.05, 0.10) else f"must be 0.05 or 0.10, got {value}"


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false", "0", "1"):
        raise ValueError(text)
    return text.lower() in ("true", "1")


OPTIONS = (
    Option("tolerance", 0.0, ("select-fwh",), "no-harm/zone tolerance (default 0)",
           type=float, check=_at_least(0)),
    Option("eqodd", "diagonal", ("evaluate",),
           "equalized-odds rates compared (default diagonal)", choices=EQODD_VARIANTS),
    Option("alpha", 0.05, ("compare",), "Nemenyi alpha, 0.05 or 0.10", type=float,
           check=_nemenyi_alpha),
    Option("units", "percent", ("evaluate",), "table cell units (default percent)",
           choices=("fraction", "percent")),
    Option("format", "csv", ("evaluate",), "table format (default csv)",
           choices=("csv", "json", "md")),
    Option("metric", None, ("compare",), "metric to rank", choices=METRIC_NAMES),
    Option("out", None, None, "output path (default: stdout)"),
    Option("svg", None, ("compare",), "SVG output path (default: --out with .svg suffix)"),
    Option("baseline", None, ("select-fwh",), "baseline file or candidate run_id"),
    Option("jobs", _usable_cpus(), ("evaluate", "select-erm", "select-fwh"),
           "processes that read prediction logs (default: the CPUs this process may use)",
           type=int, check=_at_least(1)),
    Option("tie_corrected", False, ("compare",),
           "divide the Friedman statistic by the tie correction", type=_bool),
)
_BY_NAME = {option.name: option for option in OPTIONS}


class EngineConfig:
    """The merged configuration: an attribute per option, its default unless given as
    a keyword, and ``inputs``, the input paths or globs."""

    def __init__(self, *, inputs: list[str] | None = None, **values: object):
        for name in values:
            if name not in _BY_NAME:
                raise TypeError(f"EngineConfig got an unexpected keyword argument {name!r}")
        for option in OPTIONS:
            setattr(self, option.name, values.get(option.name, option.default))
        self.inputs = [] if inputs is None else inputs

    def validate(self) -> None:
        for option in OPTIONS:
            problem = _problem(option, getattr(self, option.name))
            if problem:
                raise ConfigError(f"{option.name} {problem}")


def _problem(option: Option, value: object) -> str | None:
    """What is wrong with an option's value: outside its choices or failing its check."""
    if value is None:
        return None
    if option.choices is not None and value not in option.choices:
        return f"must be one of {option.choices}, got {value!r}"
    return option.check(value) if option.check else None


def add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """Register the flags of ``command``; a flag not given parses to None."""
    for option in OPTIONS:
        if option.commands is not None and command not in option.commands:
            continue
        flag = "--" + option.name.replace("_", "-")
        if option.type is _bool:
            parser.add_argument(flag, action="store_true", default=None, help=option.help)
        else:
            parser.add_argument(flag, type=option.type, choices=option.choices, help=option.help)


def _parse_config_file(path: Path) -> dict[str, object]:
    """The typed and checked value of each key the file sets, the last setting of a key
    winning.

    A fault in a line, its value's included, names the file and the line.
    """
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    texts: dict[str, tuple[int, str]] = {}  # key -> (line, value text)
    # lines end at \n, \r\n or a lone \r, as for every input file
    for line_no, raw in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {line_no}: expected key = value")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in _BY_NAME:
            raise ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
        texts[key] = line_no, text
    values: dict[str, object] = {}
    for key, (line_no, text) in texts.items():
        option = _BY_NAME[key]
        try:
            values[key] = option.type(text)
        except ValueError:
            raise ConfigError(f"{path}: line {line_no}: key {key!r}: bad value {text!r}") from None
        problem = _problem(option, values[key])
        if problem:
            raise ConfigError(f"{path}: line {line_no}: key {key!r}: {problem}")
    return values


def build_config(cli_values: dict[str, object], inputs: list[str]) -> EngineConfig:
    """Merge defaults, the config file (flag or env), and CLI overrides."""
    config = EngineConfig(inputs=list(inputs))

    config_path = cli_values.get("config") or os.environ.get(ENV_CONFIG)
    if config_path:
        for key, value in _parse_config_file(Path(str(config_path))).items():
            setattr(config, key, value)

    for key in _BY_NAME:
        value = cli_values.get(key)
        if value is not None:
            setattr(config, key, value)

    config.validate()
    return config
