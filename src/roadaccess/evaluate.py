"""Scoring against community-sourced validation data.

Scoring takes each validated cell's votes, in cell order, as
ingest.load_validations groups them. Votes per cell go through majority
consensus (strict plurality, so a single vote is consensus); consensus
cells matched to model cells feed a 3x3 confusion matrix, overall
accuracy, one-vs-rest F1 per level, alluvial flow counts, and ternary vote
proportions for multi-validated cells.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .classify import ClassifiedCell
from .errors import EvaluationError
from .grid import CellId
from .levels import LEVELS, DeprivationLevel

Votes = Mapping[CellId, Sequence[DeprivationLevel]]


def _tally(votes: Iterable[DeprivationLevel]) -> list[int]:
    """Votes per level, indexed by DeprivationLevel."""
    counts = [0, 0, 0]
    for v in votes:
        counts[v] += 1
    return counts


def consensus(votes: Sequence[DeprivationLevel]) -> DeprivationLevel | None:
    """Majority level of a vote list, or None on a top-count tie.

    The winner needs strictly more votes than every other level, so a single
    vote is consensus by itself.
    """
    if not votes:
        raise ValueError("consensus of an empty vote list")
    tallies = _tally(votes)
    top = max(tallies)
    return LEVELS[tallies.index(top)] if tallies.count(top) == 1 else None


def consensus_cells(votes: Votes) -> tuple[dict[CellId, DeprivationLevel], list[CellId]]:
    """Split validated cells into consensus levels by cell and no-consensus
    cell ids, both in the order of votes."""
    agreed: dict[CellId, DeprivationLevel] = {}
    tied: list[CellId] = []
    for cell, cell_votes in votes.items():
        level = consensus(cell_votes)
        if level is None:
            tied.append(cell)
        else:
            agreed[cell] = level
    return agreed, tied


def build_confusion(
    model: Iterable[ClassifiedCell], refs: Mapping[CellId, DeprivationLevel]
) -> tuple[list[list[int]], list[CellId]]:
    """3x3 confusion matrix over matched cells: cm[reference][model], both
    indexed by DeprivationLevel. Reference cells absent from the model
    output are excluded and returned for reporting."""
    model_by_cell = {c.cell: c.level for c in model}
    cm = [[0, 0, 0] for _ in LEVELS]
    unmatched: list[CellId] = []
    for cell, ref_level in refs.items():
        model_level = model_by_cell.get(cell)
        if model_level is None:
            unmatched.append(cell)
        else:
            cm[ref_level][model_level] += 1
    if sum(map(sum, cm)) == 0:
        raise EvaluationError("no validated cells match the model output")
    return cm, unmatched


def accuracy(cm: Sequence[Sequence[int]]) -> float:
    """Overall accuracy: diagonal mass over total."""
    total = sum(map(sum, cm))
    if total == 0:
        raise EvaluationError("accuracy of an empty confusion matrix")
    trace = sum(cm[k][k] for k in range(3))
    return trace / total


def f1_per_class(cm: Sequence[Sequence[int]]) -> tuple[float, float, float]:
    """One-vs-rest F1 = TP / (TP + (FP + FN)/2) per level; 0 when undefined."""
    if sum(map(sum, cm)) == 0:
        raise EvaluationError("F1 of an empty confusion matrix")
    scores = []
    for k in range(3):
        tp = cm[k][k]
        fn = sum(cm[k]) - tp
        fp = sum(cm[r][k] for r in range(3)) - tp
        denom = tp + 0.5 * (fp + fn)
        scores.append(tp / denom if denom > 0 else 0.0)
    return scores[0], scores[1], scores[2]


class TernaryPoint(NamedTuple):
    cell: CellId
    p_low: float
    p_medium: float
    p_high: float
    n_votes: int


def ternary_proportions(votes: Votes) -> list[TernaryPoint]:
    """Per-cell vote shares per level (agreement analysis).

    Only cells with two or more votes are included, no-consensus cells
    among them. Proportions sum to 1 per cell.
    """
    points: list[TernaryPoint] = []
    for cell, cell_votes in votes.items():
        n = len(cell_votes)
        if n < 2:
            continue
        n_low, n_medium, n_high = _tally(cell_votes)
        points.append(TernaryPoint(cell, n_low / n, n_medium / n, n_high / n, n))
    return points


def evaluation_report(model: Sequence[ClassifiedCell], votes: Votes) -> dict:
    """Full evaluation as a JSON-ready dict."""
    refs, no_consensus = consensus_cells(votes)
    cm, unmatched = build_confusion(model, refs)
    f1_low, f1_medium, f1_high = f1_per_class(cm)
    return {
        "matched_cells": sum(map(sum, cm)),
        "accuracy": accuracy(cm),
        "f1": {"low": f1_low, "medium": f1_medium, "high": f1_high},
        "confusion": cm,
        "confusion_axes": {"rows": "reference", "columns": "model"},
        "flows": [
            {"model": m.label, "ref": r.label, "count": cm[r][m]}
            for m in LEVELS
            for r in LEVELS
        ],
        "excluded": {"no_consensus": len(no_consensus), "unmatched": len(unmatched)},
    }
