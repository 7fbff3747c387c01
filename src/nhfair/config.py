"""Engine configuration: defaults < config file < command-line flags.

Every option is declared once, as a field of :class:`EngineConfig` whose
metadata holds its value type, help text, allowed choices or check, and
the subcommands that take it as a flag. That one declaration types the
config file, validates the merged configuration, and registers each
subcommand's flags (:func:`add_flags`).

The config file is flat ``key = value`` text ('#' starts a comment) with
the same keys as the CLI flags. A file can be named with --config or the
NHFAIR_CONFIG environment variable. It is shared by all subcommands:
every key is typed and validated whatever the command, and a command
ignores the keys of the others. Everything is validated up front so a
bad configuration aborts before any computation.
"""

from __future__ import annotations

import argparse
import io
import os
from collections.abc import Callable
from dataclasses import Field, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .records import read_text
from .tables import EQODD_VARIANTS, METRIC_NAMES

ENV_CONFIG = "NHFAIR_CONFIG"


def _at_least(low: float) -> Callable[[float], str | None]:
    return lambda value: None if value >= low else f"must be >= {low}, got {value}"


def _option(
    default: object,
    commands: tuple[str, ...] | None,
    help: str,
    type: Callable[[str], object] = str,
    choices: tuple[str, ...] | None = None,
    check: Callable[[object], str | None] | None = None,
) -> object:
    """A config key that is also a ``--flag`` of each command in ``commands``
    (of every command if ``commands`` is None).

    ``check`` returns what is wrong with a value, or None; a value of None
    (not given) is never checked.
    """
    metadata = {"commands": commands, "help": help, "type": type, "choices": choices,
                "check": check}
    return field(default=default, metadata=metadata)


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


@dataclass
class EngineConfig:
    tolerance: float = _option(
        0.0, ("select-fwh",), "no-harm/zone tolerance (default 0)", type=float,
        check=_at_least(0),
    )
    eqodd: str = _option(
        "diagonal", ("evaluate",), "equalized-odds rates compared (default diagonal)",
        choices=EQODD_VARIANTS,
    )
    alpha: float = _option(
        0.05, ("compare",), "Nemenyi alpha, 0.05 or 0.10", type=float, check=_nemenyi_alpha,
    )
    units: str = _option(
        "percent", ("evaluate",), "table cell units (default percent)",
        choices=("fraction", "percent"),
    )
    format: str = _option(
        "csv", ("evaluate",), "table format (default csv)", choices=("csv", "json", "md"),
    )
    metric: str | None = _option(None, ("compare",), "metric to rank", choices=METRIC_NAMES)
    out: str | None = _option(None, None, "output path (default: stdout)")
    svg: str | None = _option(
        None, ("compare",), "SVG output path (default: --out with .svg suffix)",
    )
    baseline: str | None = _option(None, ("select-fwh",), "baseline file or candidate run_id")
    jobs: int = _option(
        _usable_cpus(), ("evaluate", "select-erm", "select-fwh"),
        "processes that read prediction logs (default: the CPUs this process may use)",
        type=int, check=_at_least(1),
    )
    tie_corrected: bool = _option(
        False, ("compare",), "divide the Friedman statistic by the tie correction",
        type=_bool,
    )
    inputs: list[str] = field(default_factory=list)

    def validate(self) -> None:
        for option in OPTIONS:
            value = getattr(self, option.name)
            if value is None:
                continue
            choices = option.metadata["choices"]
            if choices is not None and value not in choices:
                raise ConfigError(f"{option.name} must be one of {choices}, got {value!r}")
            check = option.metadata["check"]
            problem = check(value) if check else None
            if problem:
                raise ConfigError(f"{option.name} {problem}")


OPTIONS: tuple[Field, ...] = tuple(f for f in fields(EngineConfig) if f.metadata)
_BY_NAME = {option.name: option for option in OPTIONS}


def add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """Register the flags of ``command``; a flag not given parses to None."""
    for option in OPTIONS:
        meta = option.metadata
        if meta["commands"] is not None and command not in meta["commands"]:
            continue
        flag = "--" + option.name.replace("_", "-")
        if meta["type"] is _bool:
            parser.add_argument(flag, action="store_true", default=None, help=meta["help"])
        else:
            parser.add_argument(flag, type=meta["type"], choices=meta["choices"], help=meta["help"])


def _parse_config_file(path: Path) -> dict[str, str]:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    # lines end at \n, \r\n or a lone \r, as for every input file
    for line_no, raw in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _BY_NAME:
            raise ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
        values[key] = value
    return values


def build_config(cli_values: dict[str, object], inputs: list[str]) -> EngineConfig:
    """Merge defaults, the config file (flag or env), and CLI overrides."""
    config = EngineConfig(inputs=list(inputs))

    config_path = cli_values.get("config") or os.environ.get(ENV_CONFIG)
    if config_path:
        raw = _parse_config_file(Path(str(config_path)))
        for key, text in raw.items():
            try:
                setattr(config, key, _BY_NAME[key].metadata["type"](text))
            except ValueError:
                raise ConfigError(f"config key {key!r}: bad value {text!r}") from None

    for key in _BY_NAME:
        value = cli_values.get(key)
        if value is not None:
            setattr(config, key, value)

    config.validate()
    return config
