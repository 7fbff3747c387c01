"""Synthetic cohorts with controlled group-conditional behavior.

A CohortSpec pins down, per group, how many samples to draw, the class
prior, and the row-stochastic confusion behavior (true label -> predicted
label distribution). Generation is driven by numpy's default PCG64
generator seeded from the spec, so the same spec always produces a
byte-identical run on any platform. This is the one module that loads
numpy, which only the ``synth`` extra installs (``nhfair[synth]``;
without it, importing this module raises ImportError naming the extra),
and the one that declares a dataclass, as no command loads it. Its draws
are handed to ``EvaluationRun`` as arrays of the run's own typecodes,
which the run copies into its columns as bytes.

Scores are per-class probability vectors that sum to one. With
score_noise = 0 they are one-hot on the predicted label; larger noise
mixes in a Dirichlet(1, ..., 1) draw with weight noise / (1 + noise), so
concentration on the predicted class decays smoothly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

try:
    import numpy as np
except ImportError as exc:
    raise ImportError(
        "nhfair.synth needs numpy, which the synth extra installs: pip install 'nhfair[synth]'"
    ) from exc

from .errors import InvalidSpec
from .inputs import read_json, require_json_type
from .records import EvaluationRun, GroupSpace, LabelSpace, RunManifest, code_type

_PRIOR_TOL = 1e-9


@dataclass(frozen=True)
class CohortSpec:
    seed: int
    n_per_group: dict[str, int]
    class_prior: dict[str, dict[str, float]]  # group -> label -> probability
    confusion_spec: dict[str, dict[str, dict[str, float]]]  # group -> true -> pred -> p
    score_noise: float = 0.0

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(self.n_per_group)

    @property
    def labels(self) -> tuple[str, ...]:
        first = next(iter(self.class_prior.values()))
        return tuple(first)

    def validate(self) -> None:
        if len(self.n_per_group) < 2:
            raise InvalidSpec("need at least 2 groups")
        labels = self.labels
        if len(labels) < 2:
            raise InvalidSpec("need at least 2 labels")
        if self.score_noise < 0:
            raise InvalidSpec("score_noise must be >= 0")
        for g, n in self.n_per_group.items():
            if n < 1:
                raise InvalidSpec(f"group {g}: n must be >= 1")
        for g in self.groups:
            prior = self.class_prior.get(g)
            if prior is None or tuple(prior) != labels:
                raise InvalidSpec(f"group {g}: class prior must cover labels {labels}")
            if abs(sum(prior.values()) - 1.0) > _PRIOR_TOL:
                raise InvalidSpec(f"group {g}: class prior does not sum to 1")
            if any(p < 0 for p in prior.values()):
                raise InvalidSpec(f"group {g}: negative prior")
            rows = self.confusion_spec.get(g)
            if rows is None or tuple(rows) != labels:
                raise InvalidSpec(f"group {g}: confusion rows must cover labels {labels}")
            for true_label, row in rows.items():
                if tuple(row) != labels:
                    raise InvalidSpec(
                        f"group {g}, label {true_label}: confusion row must cover {labels}"
                    )
                if abs(sum(row.values()) - 1.0) > _PRIOR_TOL:
                    raise InvalidSpec(f"group {g}, label {true_label}: row does not sum to 1")
                if any(p < 0 for p in row.values()):
                    raise InvalidSpec(f"group {g}, label {true_label}: negative probability")

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "n_per_group": self.n_per_group,
                "class_prior": self.class_prior,
                "confusion_spec": self.confusion_spec,
                "score_noise": self.score_noise,
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "CohortSpec":
        return CohortSpec._from_value(json.loads(text))

    @staticmethod
    def _from_value(raw: object) -> "CohortSpec":
        """The spec of a JSON value; a key that is missing or of another JSON type
        is an InvalidSpec naming it."""
        doc = _checked("spec", raw, "object")
        for key in ("seed", "n_per_group", "class_prior", "confusion_spec"):
            if key not in doc:
                raise InvalidSpec(f"missing key {key!r}")
        return CohortSpec(
            seed=_checked("seed", doc["seed"], "integer"),
            n_per_group=_nested("n_per_group", doc["n_per_group"], 1, "integer"),
            class_prior=_nested("class_prior", doc["class_prior"], 2, "number"),
            confusion_spec=_nested("confusion_spec", doc["confusion_spec"], 3, "number"),
            score_noise=_checked("score_noise", doc.get("score_noise", 0.0), "number"),
        )

    @staticmethod
    def load(path: str | Path) -> "CohortSpec":
        """The spec in a JSON file; text that is not JSON is a ParseError naming the file."""
        return CohortSpec._from_value(read_json(Path(path)))


def _checked(key: str, value: object, kind: str) -> object:
    """``value``, which must be a JSON ``kind``, a number as a float; an InvalidSpec
    naming ``key`` if it is not."""
    try:
        require_json_type(key, value, kind)
    except ValueError as exc:
        raise InvalidSpec(str(exc)) from None
    return float(value) if kind == "number" else value


def _nested(key: str, value: object, depth: int, kind: str) -> dict:
    """:func:`_checked` objects nested ``depth`` deep around JSON ``kind`` values."""
    return {
        name: _nested(f"{key}.{name}", item, depth - 1, kind)
        if depth > 1 else _checked(f"{key}.{name}", item, kind)
        for name, item in _checked(key, value, "object").items()
    }


def generate(
    spec: CohortSpec,
    utility_kind: str = "accuracy",
    method: str = "synthetic",
    dataset: str = "cohort",
    split: str = "test",
) -> EvaluationRun:
    """Draw one cohort; deterministic given the spec's seed. Only an auc run has scores."""
    spec.validate()
    labels = spec.labels
    groups = spec.groups
    with_scores = utility_kind == "auc"

    rng = np.random.default_rng(spec.seed)
    width = max(6, len(str(max(spec.n_per_group.values()) - 1)))
    sample_ids: list[str] = []
    group_codes, true_codes, pred_codes, score_blocks = [], [], [], []
    n_labels = len(labels)
    # codes of the run's own typecodes, which the run copies as bytes
    group_type, label_type = code_type(len(groups)), code_type(n_labels)
    for gi, g in enumerate(groups):
        n = spec.n_per_group[g]
        prior = np.array([spec.class_prior[g][lb] for lb in labels])
        true_idx = rng.choice(n_labels, size=n, p=prior).astype(label_type)
        pred_idx = np.empty(n, dtype=label_type)
        for y, true_label in enumerate(labels):
            mask = true_idx == y
            count = int(mask.sum())
            if count == 0:
                continue
            row = np.array([spec.confusion_spec[g][true_label][lb] for lb in labels])
            pred_idx[mask] = rng.choice(n_labels, size=count, p=row)
        if with_scores:
            onehot = np.zeros((n, n_labels))
            onehot[np.arange(n), pred_idx] = 1.0
            if spec.score_noise == 0:
                scores = onehot
            else:
                lam = spec.score_noise / (1.0 + spec.score_noise)
                noise = rng.dirichlet(np.ones(n_labels), size=n)
                scores = (1.0 - lam) * onehot + lam * noise
            score_blocks.append(scores)
        sample_ids.extend(f"{g}-{i:0{width}d}" for i in range(n))
        group_codes.append(np.full(n, gi, dtype=group_type))
        true_codes.append(true_idx)
        pred_codes.append(pred_idx)

    manifest = RunManifest(
        method=method,
        dataset=dataset,
        seed=spec.seed,
        split=split,
        utility_kind=utility_kind,
        label_space=LabelSpace(labels=labels),
        group_space=GroupSpace(groups=groups),
    )
    return EvaluationRun(
        manifest=manifest,
        sample_ids=sample_ids,
        group=np.concatenate(group_codes),
        y=np.concatenate(true_codes),
        y_hat=np.concatenate(pred_codes),
        # one contiguous column per label
        scores=np.concatenate(score_blocks).T.copy() if with_scores else None,
    )
