"""Scoring against community-sourced validation data.

Votes per cell go through majority consensus (strict plurality, single votes
pass by default); consensus cells matched to model cells feed a 3x3
confusion matrix, overall accuracy, one-vs-rest F1 per level, alluvial flow
counts, and ternary vote proportions for multi-validated cells.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .classify import ClassifiedCell
from .errors import EvaluationError
from .grid import CellId
from .ingest import ValidationRecord
from .levels import LEVELS, DeprivationLevel


@dataclass(frozen=True)
class ConsensusCell:
    cell: CellId
    level: DeprivationLevel
    vote_counts: tuple[int, int, int]  # (n_low, n_medium, n_high)


class ConfusionMatrix3:
    """3x3 tally: rows are reference (community) levels, columns model levels."""

    __slots__ = ("counts",)

    def __init__(self, counts: Sequence[Sequence[int]] | None = None):
        if counts is None:
            self.counts = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        else:
            if len(counts) != 3 or any(len(row) != 3 for row in counts):
                raise ValueError("confusion matrix must be 3x3")
            self.counts = [[int(v) for v in row] for row in counts]

    def add(self, ref: DeprivationLevel, model: DeprivationLevel) -> None:
        self.counts[ref.value][model.value] += 1

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def __getitem__(self, ref: DeprivationLevel) -> list[int]:
        return self.counts[ref.value]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConfusionMatrix3) and self.counts == other.counts


def consensus(votes: Sequence[DeprivationLevel]) -> DeprivationLevel | None:
    """Majority level of a vote list, or None on a top-count tie.

    A single vote is consensus by default; otherwise the winner needs
    strictly more votes than every other level.
    """
    if not votes:
        raise ValueError("consensus of an empty vote list")
    if len(votes) == 1:
        return votes[0]
    tallies = {lvl: 0 for lvl in LEVELS}
    for v in votes:
        tallies[v] += 1
    top = max(tallies.values())
    winners = [lvl for lvl in LEVELS if tallies[lvl] == top]
    return winners[0] if len(winners) == 1 else None


def votes_by_cell(
    records: Iterable[ValidationRecord],
) -> dict[CellId, list[DeprivationLevel]]:
    """Group votes per cell, keeping one (the last) vote per validator."""
    per_validator: dict[CellId, dict[str, DeprivationLevel]] = defaultdict(dict)
    for r in records:
        per_validator[r.cell][r.validator_id] = r.level
    return {
        cell: list(per_validator[cell].values()) for cell in sorted(per_validator)
    }


def _vote_counts(votes: Sequence[DeprivationLevel]) -> tuple[int, int, int]:
    return (
        sum(1 for v in votes if v is DeprivationLevel.LOW),
        sum(1 for v in votes if v is DeprivationLevel.MEDIUM),
        sum(1 for v in votes if v is DeprivationLevel.HIGH),
    )


def consensus_cells(
    records: Iterable[ValidationRecord],
) -> tuple[list[ConsensusCell], list[CellId]]:
    """Split validated cells into consensus cells and no-consensus cell ids."""
    agreed: list[ConsensusCell] = []
    tied: list[CellId] = []
    for cell, votes in votes_by_cell(records).items():
        level = consensus(votes)
        if level is None:
            tied.append(cell)
        else:
            agreed.append(ConsensusCell(cell, level, _vote_counts(votes)))
    return agreed, tied


def build_confusion(
    model: Iterable[ClassifiedCell], refs: Iterable[ConsensusCell]
) -> tuple[ConfusionMatrix3, list[CellId]]:
    """Confusion matrix over matched cells; reference cells absent from the
    model output are excluded and returned for reporting."""
    model_by_cell = {c.cell: c.level for c in model}
    cm = ConfusionMatrix3()
    unmatched: list[CellId] = []
    for ref in refs:
        model_level = model_by_cell.get(ref.cell)
        if model_level is None:
            unmatched.append(ref.cell)
        else:
            cm.add(ref.level, model_level)
    if cm.total() == 0:
        raise EvaluationError("no validated cells match the model output")
    return cm, unmatched


def accuracy(cm: ConfusionMatrix3) -> float:
    """Overall accuracy: diagonal mass over total."""
    total = cm.total()
    if total == 0:
        raise EvaluationError("accuracy of an empty confusion matrix")
    trace = sum(cm.counts[k][k] for k in range(3))
    return trace / total


def f1_per_class(cm: ConfusionMatrix3) -> tuple[float, float, float]:
    """One-vs-rest F1 = TP / (TP + (FP + FN)/2) per level; 0 when undefined."""
    if cm.total() == 0:
        raise EvaluationError("F1 of an empty confusion matrix")
    scores = []
    for k in range(3):
        tp = cm.counts[k][k]
        fn = sum(cm.counts[k]) - tp
        fp = sum(cm.counts[r][k] for r in range(3)) - tp
        denom = tp + 0.5 * (fp + fn)
        scores.append(tp / denom if denom > 0 else 0.0)
    return scores[0], scores[1], scores[2]


@dataclass(frozen=True)
class TernaryPoint:
    cell: CellId
    p_low: float
    p_medium: float
    p_high: float
    n_votes: int


def ternary_proportions(
    records: Iterable[ValidationRecord], multi_only: bool = True
) -> list[TernaryPoint]:
    """Per-cell vote shares per level (agreement analysis).

    Cells with no consensus are included; with multi_only, single-vote cells
    are excluded. Proportions sum to 1 per cell.
    """
    points: list[TernaryPoint] = []
    for cell, votes in votes_by_cell(records).items():
        n = len(votes)
        if multi_only and n < 2:
            continue
        n_low, n_medium, n_high = _vote_counts(votes)
        points.append(TernaryPoint(cell, n_low / n, n_medium / n, n_high / n, n))
    return points


def evaluation_report(
    model: Sequence[ClassifiedCell], records: Sequence[ValidationRecord]
) -> dict:
    """Full evaluation as a JSON-ready dict."""
    refs, no_consensus = consensus_cells(records)
    cm, unmatched = build_confusion(model, refs)
    f1_low, f1_medium, f1_high = f1_per_class(cm)
    return {
        "matched_cells": cm.total(),
        "accuracy": accuracy(cm),
        "f1": {"low": f1_low, "medium": f1_medium, "high": f1_high},
        "confusion": [list(row) for row in cm.counts],
        "confusion_axes": {"rows": "reference", "columns": "model"},
        "flows": [
            {"model": m.label, "ref": r.label, "count": cm[r][m.value]}
            for m in LEVELS
            for r in LEVELS
        ],
        "excluded": {"no_consensus": len(no_consensus), "unmatched": len(unmatched)},
    }
