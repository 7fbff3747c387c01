"""Fairness evaluation engine: metrics, harm-aware selection, rank statistics.

Every export is resolved on first access (PEP 562), so importing the
package, or a command that reads only summary tables, loads none of the
log and metric code. Only ``nhfair.synth`` loads numpy, which the
``synth`` extra installs.
"""

from importlib import import_module

__version__ = "0.1.0"

# export name -> the module that defines it
_EXPORTS = {
    "CandidatePoint": "selection",
    "CohortSpec": "synth",
    "ConfusionTensor": "metrics",
    "EvaluationRun": "records",
    "GroupSpace": "records",
    "GroupUtilityVector": "selection",
    "LabelSpace": "records",
    "PredictionRecord": "records",
    "RankMatrix": "stats",
    "ReportRow": "tables",
    "RunManifest": "records",
    "RunResult": "selection",
    "SelectionResult": "selection",
    "UtopiaPoint": "selection",
    "Zone": "selection",
    "ZoneTally": "selection",
    "aggregate": "stats",
    "classify_zone": "selection",
    "cliques": "stats",
    "confusion": "metrics",
    "demographic_parity": "metrics",
    "dto_select": "selection",
    "equalized_odds": "metrics",
    "friedman": "stats",
    "fwh_select": "selection",
    "gap": "metrics",
    "generate": "synth",
    "group_accuracy": "metrics",
    "group_auc": "metrics",
    "mean_ranks": "stats",
    "metric_report": "metrics",
    "nemenyi_cd": "stats",
    "parse_run": "records",
    "parse_summaries": "selection",
    "pooled_auc": "metrics",
    "rank_matrix": "stats",
    "utopia": "selection",
    "worst": "metrics",
    "write_run": "records",
    "zone_tally_table": "selection",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *__all__])
