import itertools
import random

import pytest

from roadaccess.classify import ClassifiedCell
from roadaccess.errors import EvaluationError
from roadaccess.evaluate import (
    accuracy,
    build_confusion,
    consensus,
    consensus_cells,
    evaluation_report,
    f1_per_class,
    ternary_proportions,
)
from roadaccess.grid import CellId
from roadaccess.ingest import load_validations
from roadaccess.levels import LEVELS, DeprivationLevel

LOW, MEDIUM, HIGH = DeprivationLevel.LOW, DeprivationLevel.MEDIUM, DeprivationLevel.HIGH


def test_consensus_examples():
    assert consensus([LOW, LOW, MEDIUM]) is LOW
    assert consensus([LOW, MEDIUM]) is None
    assert consensus([HIGH]) is HIGH
    assert consensus([LOW, LOW, MEDIUM, MEDIUM, HIGH]) is None


def test_consensus_empty_votes_is_an_error():
    with pytest.raises(ValueError):
        consensus([])


def test_consensus_matches_counting_oracle_for_all_small_multisets():
    # every vote multiset of size 1..6 over the three levels
    for size in range(1, 7):
        for combo in itertools.combinations_with_replacement(LEVELS, size):
            votes = list(combo)
            got = consensus(votes)
            tallies = {lvl: votes.count(lvl) for lvl in LEVELS}
            top = max(tallies.values())
            winners = [lvl for lvl in LEVELS if tallies[lvl] == top]
            want = winners[0] if len(winners) == 1 else None
            assert got is want, votes
            if got is not None and len(votes) > 1:
                assert all(
                    tallies[got] >= tallies[lvl] + 1 for lvl in LEVELS if lvl is not got
                )


def test_consensus_order_independent():
    rng = random.Random(2)
    for _ in range(100):
        votes = [rng.choice(LEVELS) for _ in range(rng.randint(1, 8))]
        shuffled = list(votes)
        rng.shuffle(shuffled)
        assert consensus(votes) is consensus(shuffled)


def test_a_revised_vote_counts_once(tmp_path):
    # one person, one vote: a revised vote counts once, through the loader
    path = tmp_path / "votes.csv"
    path.write_text(
        "cell_i,cell_j,validator_id,level\n"
        "0,0,a,low\n0,0,a,high\n0,0,b,low\n"  # a revises low -> high
        "1,0,c,medium\n"
    )
    votes = load_validations(path)
    report = evaluation_report([model_cell(0, 0, LOW), model_cell(1, 0, MEDIUM)], votes)
    # (0, 0) is a high-low tie; with both of a's rows, low would win 2-1 and match
    assert report["matched_cells"] == 1
    assert report["excluded"] == {"no_consensus": 1, "unmatched": 0}
    assert [t.n_votes for t in ternary_proportions(votes)] == [2]


def test_consensus_cells_split():
    votes = {
        CellId(0, 0): [LOW, LOW, MEDIUM],
        CellId(1, 0): [LOW, MEDIUM],
        CellId(2, 0): [HIGH],
    }
    agreed, tied = consensus_cells(votes)
    assert agreed[CellId(0, 0)] is LOW
    assert agreed[CellId(2, 0)] is HIGH
    assert tied == [CellId(1, 0)]


def model_cell(i, j, level):
    return ClassifiedCell(CellId(i, j), level, 3, 0.0, None)


def test_build_confusion_perfect_agreement():
    model = [model_cell(i, 0, LOW) for i in range(10)]
    refs = {CellId(i, 0): LOW for i in range(10)}
    cm, unmatched = build_confusion(model, refs)
    assert sum(map(sum, cm)) == 10
    assert cm[LOW][LOW] == 10
    assert unmatched == []


def test_build_confusion_one_disagreement():
    model = [model_cell(0, 0, MEDIUM)]
    refs = {CellId(0, 0): LOW}
    cm, _ = build_confusion(model, refs)
    assert cm[LOW][MEDIUM] == 1


def test_build_confusion_reports_unmatched():
    model = [model_cell(0, 0, LOW)]
    refs = {CellId(0, 0): LOW, CellId(9, 9): HIGH}
    cm, unmatched = build_confusion(model, refs)
    assert sum(map(sum, cm)) == 1
    assert unmatched == [CellId(9, 9)]


def test_build_confusion_zero_matches_is_evaluation_error():
    with pytest.raises(EvaluationError):
        build_confusion([model_cell(0, 0, LOW)], {CellId(5, 5): LOW})


def test_build_confusion_matches_tally_oracle():
    rng = random.Random(6)
    model = []
    refs = {}
    tally = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for i in range(200):
        m = rng.choice(LEVELS)
        r = rng.choice(LEVELS)
        model.append(model_cell(i, 0, m))
        refs[CellId(i, 0)] = r
        tally[r.value][m.value] += 1
    cm, _ = build_confusion(model, refs)
    assert cm == tally


def test_accuracy_examples():
    identity = [[7, 0, 0], [0, 4, 0], [0, 0, 2]]
    assert accuracy(identity) == 1.0
    cm = [[40, 10, 5], [10, 10, 5], [5, 5, 10]]
    assert accuracy(cm) == pytest.approx(0.6)
    off = [[0, 9, 0], [0, 0, 0], [0, 0, 0]]
    assert accuracy(off) == 0.0
    with pytest.raises(EvaluationError):
        accuracy([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_f1_examples():
    # low: TP 8, FN 2 (row), FP 2 (column)
    cm = [[8, 1, 1], [1, 5, 0], [1, 0, 5]]
    f1_low, _, _ = f1_per_class(cm)
    assert f1_low == pytest.approx(8 / (8 + 0.5 * (2 + 2)))
    perfect = [[5, 0, 0], [0, 5, 0], [0, 0, 5]]
    assert f1_per_class(perfect) == (1.0, 1.0, 1.0)
    # high never appears in refs nor predictions: F1 = 0 by convention
    absent = [[5, 1, 0], [2, 4, 0], [0, 0, 0]]
    assert f1_per_class(absent)[2] == 0.0


def test_f1_equals_one_iff_mass_is_diagonal():
    rng = random.Random(13)
    for _ in range(200):
        counts = [[rng.randint(0, 5) for _ in range(3)] for _ in range(3)]
        if sum(map(sum, counts)) == 0:
            continue
        scores = f1_per_class(counts)
        for k in range(3):
            row_off = sum(counts[k]) - counts[k][k]
            col_off = sum(counts[r][k] for r in range(3)) - counts[k][k]
            if scores[k] == 1.0:
                assert row_off == 0 and col_off == 0 and counts[k][k] > 0
            if counts[k][k] > 0 and row_off == 0 and col_off == 0:
                assert scores[k] == 1.0


def report_flows(report):
    return [
        (DeprivationLevel.from_label(f["model"]), DeprivationLevel.from_label(f["ref"]), f["count"])
        for f in report["flows"]
    ]


def test_flows_consistent_with_confusion():
    rng = random.Random(14)
    model = [model_cell(i, 0, rng.choice(LEVELS)) for i in range(60)]
    votes = {CellId(i, 0): [rng.choice(LEVELS)] for i in range(60)}
    report = evaluation_report(model, votes)
    flows = report_flows(report)
    # all ordered pairs, zero counts included, model level outermost
    assert [(m, r) for m, r, _ in flows] == [(m, r) for m in LEVELS for r in LEVELS]
    for m, r, count in flows:
        assert report["confusion"][r.value][m.value] == count
    assert sum(count for _, _, count in flows) == report["matched_cells"] == 60


def test_flows_single_cell():
    report = evaluation_report([model_cell(0, 0, LOW)], {CellId(0, 0): [MEDIUM]})
    flows = report_flows(report)
    assert (LOW, MEDIUM, 1) in flows
    assert sum(c for _, _, c in flows) == 1


def test_ternary_proportions_examples():
    votes = {
        CellId(0, 0): [LOW, LOW],
        CellId(1, 0): [LOW, MEDIUM],
        CellId(2, 0): [LOW, MEDIUM, HIGH],
        CellId(3, 0): [HIGH],  # single vote: excluded
    }
    points = {t.cell: t for t in ternary_proportions(votes)}
    assert CellId(3, 0) not in points
    assert points[CellId(0, 0)].p_low == 1.0
    assert (points[CellId(1, 0)].p_low, points[CellId(1, 0)].p_medium) == (0.5, 0.5)
    third = points[CellId(2, 0)]
    assert third.p_low == pytest.approx(1 / 3)
    assert third.n_votes == 3
    # no-consensus cells (1,0) and (2,0) are included
    assert CellId(1, 0) in points
    for t in points.values():
        assert abs(t.p_low + t.p_medium + t.p_high - 1.0) < 1e-12


def test_validator_relabeling_leaves_outputs_unchanged(tmp_path):
    rng = random.Random(15)
    # rows i and i + 63 share cell and validator: later votes revise earlier ones
    rows = [(i % 7, i % 3, f"person-{i % 9}", rng.choice(LEVELS).label) for i in range(80)]
    anon = {f"person-{k}": f"anon-{k}-{rng.randrange(1000)}" for k in range(9)}  # one-to-one

    def load(name, relabel):
        path = tmp_path / name
        path.write_text(
            "cell_i,cell_j,validator_id,level\n"
            + "".join(f"{i},{j},{relabel(v)},{level}\n" for i, j, v, level in rows)
        )
        return load_validations(path)

    model = [model_cell(i, j, rng.choice(LEVELS)) for i in range(7) for j in range(3)]
    report = evaluation_report(model, load("votes.csv", str))
    assert report == evaluation_report(model, load("anon.csv", anon.__getitem__))


def test_conservation_of_validated_cells():
    rng = random.Random(16)
    votes = {CellId(i, 0): [rng.choice(LEVELS) for _ in range(rng.randint(1, 4))] for i in range(40)}
    model = [model_cell(i, 0, rng.choice(LEVELS)) for i in range(30)]  # 10 unmatched
    refs, no_consensus = consensus_cells(votes)
    try:
        cm, unmatched = build_confusion(model, refs)
        matched = sum(map(sum, cm))
    except EvaluationError:
        matched, unmatched = 0, []
    assert matched + len(no_consensus) + len(unmatched) == len(votes)


def test_evaluation_report_shape():
    model = [model_cell(0, 0, LOW), model_cell(1, 0, MEDIUM)]
    votes = {CellId(0, 0): [LOW], CellId(1, 0): [LOW]}
    report = evaluation_report(model, votes)
    assert report["matched_cells"] == 2
    assert report["accuracy"] == 0.5
    assert set(report["f1"]) == {"low", "medium", "high"}
    assert len(report["confusion"]) == 3
    assert len(report["flows"]) == 9
    assert report["excluded"] == {"no_consensus": 0, "unmatched": 0}
