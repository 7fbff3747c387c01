"""Exception hierarchy shared across the engine.

Parse-time errors carry the offending line or row number so a bad input
file can be fixed without guesswork. Run-level problems (an empty group,
a degenerate metric) have no single line and set ``line`` to None.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ParseError(EngineError):
    """Input file problem; ``path`` and ``line`` locate it."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: "
        if line is not None:
            where += f"line {line}: "
        super().__init__(where + message)


class MalformedLine(ParseError):
    pass


class MalformedRow(ParseError):
    pass


class UnknownLabel(ParseError):
    pass


class UnknownGroup(ParseError):
    pass


class DuplicateSampleId(ParseError):
    pass


class MissingScores(ParseError):
    pass


class EmptyGroup(ParseError):
    pass


class UtilityOutOfRange(ParseError):
    pass


class InvalidSpec(EngineError):
    """A synthetic cohort specification violates its own constraints."""


class MetricError(EngineError):
    pass


class AllGroupsDegenerate(MetricError):
    """No group contains both classes; group AUC is undefined everywhere."""


class NoEvaluableClass(MetricError):
    """Every class has an empty (group, class) cell; equalized odds is undefined."""


class GroupSpaceMismatch(EngineError):
    """Two utility vectors or points do not share the same set of groups."""


class SelectionError(EngineError):
    pass


class EmptyCandidateSet(SelectionError):
    pass


class StatsError(EngineError):
    pass


class DuplicateSeed(StatsError):
    pass


class MissingCell(StatsError):
    """A method x dataset cell required for ranking is absent."""


class DegenerateMatrix(StatsError):
    pass


class UnsupportedK(StatsError):
    pass


class UnsupportedAlpha(StatsError):
    pass


class ConfigError(EngineError):
    pass

