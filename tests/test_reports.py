"""Report rendering against hand-built report objects and hand-written text."""

import dataclasses
import os

import pytest

from testability import reports
from testability.correlation import CorrelationReport
from testability.learn import ModelKind
from testability.learn.evaluation import EvalReport
from testability.metrics import MetricId as M
from testability.ranking import RankingAlgorithm, RankingTable


CORRELATION = CorrelationReport(
    entries=((M.LOC, 0.7), (M.WMC, -0.7)),
    full_table=((M.NPM, 0.2), (M.WMC, -0.7), (M.AMC, 0.123456789), (M.LOC, 0.7),
                (M.NOF, -0.2)),
    skipped=((M.NSTAM, "constant, all zero"),),
    threshold=0.5,
    population=120,
    population_kind="raw",
)


def test_correlation_csv_orders_by_abs_rho_then_column_and_flags_reported():
    assert reports.correlation_csv(CORRELATION, "abc") == (
        "# manifest: abc\n"
        "metric,coefficient,reported\n"
        "LOC,0.7,true\n"
        "WMC,-0.7,true\n"
        "NOF,-0.2,false\n"
        "NPM,0.2,false\n"
        "AMC,0.123456789,false\n"
        'NSTAM,,"skipped: constant, all zero"\n'
    )


def test_correlation_csv_quotes_a_cell_with_a_comma_a_quote_or_a_newline():
    report = dataclasses.replace(CORRELATION, skipped=((M.NSTAM, 'a,b say "hi"\ntwo'),))
    assert reports.correlation_csv(report, "abc").endswith(
        'AMC,0.123456789,false\nNSTAM,,"skipped: a,b say ""hi""\ntwo"\n')


def test_correlation_md_prints_six_decimals_and_lists_skipped_metrics():
    assert reports.correlation_md(CORRELATION, "abc") == (
        "# Correlation with mutation score\n"
        "\n"
        "Manifest: `abc`\n"
        "\n"
        "Population: raw (120 records); reporting |rho| >= 0.5.\n"
        "\n"
        "| Static Metric | Correlation Coefficient |\n"
        "| --- | --- |\n"
        "| LOC | 0.700000 |\n"
        "| WMC | -0.700000 |\n"
        "\n"
        "## Full table\n"
        "\n"
        "| Metric | Coefficient |\n"
        "| --- | --- |\n"
        "| LOC | 0.700000 |\n"
        "| WMC | -0.700000 |\n"
        "| NOF | -0.200000 |\n"
        "| NPM | 0.200000 |\n"
        "| AMC | 0.123457 |\n"
        "\n"
        "Skipped: NSTAM (constant, all zero)\n"
    )


def test_correlation_md_without_skipped_metrics_has_no_skipped_line():
    report = CorrelationReport((), ((M.LOC, 0.25),), (), 0.5, 3, "labeled")
    text = reports.correlation_md(report, "h")
    assert "Skipped" not in text
    assert "Population: labeled (3 records); reporting |rho| >= 0.5.\n" in text
    assert text.endswith("| LOC | 0.250000 |\n")


EVAL = EvalReport(
    classifier=ModelKind.DECISION_TREE,
    accuracy=0.1 + 0.2,
    precision=2 / 3,
    recall=0.5,
    f_measure=4 / 7,
    auc=1.0,
    folds=10,
    seed=7,
    tp=3,
    fp=1,
    tn=4,
    fn=2,
)


def test_classification_csv_writes_repr_floats():
    assert reports.classification_csv([EVAL], "abc") == (
        "# manifest: abc\n"
        "classifier,accuracy,precision,recall,f_measure,auc,folds,seed,tp,fp,tn,fn\n"
        "DecisionTree,0.30000000000000004,0.6666666666666666,0.5,0.5714285714285714,"
        "1.0,10,7,3,1,4,2\n"
    )


def test_classification_md_prints_three_decimals():
    assert reports.classification_md([EVAL], "abc") == (
        "# Classification results\n"
        "\n"
        "Manifest: `abc`\n"
        "\n"
        "10-fold stratified cross-validation, seed 7; class-weighted "
        "precision/recall/F; AUC over pooled out-of-fold scores.\n"
        "\n"
        "| Classifier | Accuracy | Precision | Recall | F-Measure | AUC |\n"
        "| --- | --- | --- | --- | --- | --- |\n"
        "| DecisionTree | 0.300 | 0.667 | 0.500 | 0.571 | 1.000 |\n"
    )


def test_classification_reports_of_an_empty_list_are_headers_only():
    assert reports.classification_csv([], "h") == (
        "# manifest: h\n"
        "classifier,accuracy,precision,recall,f_measure,auc,folds,seed,tp,fp,tn,fn\n"
    )
    assert reports.classification_md([], "h") == (
        "# Classification results\n"
        "\n"
        "Manifest: `h`\n"
        "\n"
        "| Classifier | Accuracy | Precision | Recall | F-Measure | AUC |\n"
        "| --- | --- | --- | --- | --- | --- |\n"
    )


RANKING = [
    RankingTable(RankingAlgorithm.GAIN_RATIO, ((M.LOC, 0.5), (M.WMC, 0.25), (M.NPM, 0.125))),
    RankingTable(RankingAlgorithm.ONE_R, ((M.WMC, 0.75),)),
]


def test_ranking_csv_is_ragged_with_blank_cells_and_cut_at_top():
    assert reports.ranking_csv(RANKING, "abc", top=2) == (
        "# manifest: abc\n"
        "rank,GainRatio,GainRatio_score,OneR,OneR_score\n"
        "1,LOC,0.5,WMC,0.75\n"
        "2,WMC,0.25,,\n"
    )
    assert reports.ranking_csv(RANKING, "abc").endswith("2,WMC,0.25,,\n3,NPM,0.125,,\n")


def test_ranking_md_is_ragged_with_blank_cells_and_cut_at_top():
    assert reports.ranking_md(RANKING, "abc", top=2) == (
        "# Feature ranking\n"
        "\n"
        "Manifest: `abc`\n"
        "\n"
        "|  | GainRatio | OneR |\n"
        "| --- | --- | --- |\n"
        "| Rank 1 | LOC | WMC |\n"
        "| Rank 2 | WMC |  |\n"
    )
    assert reports.ranking_md(RANKING, "abc").endswith("| Rank 3 | NPM |  |\n")


def test_ranking_of_no_tables_is_headers_only():
    assert reports.ranking_csv([], "h") == "# manifest: h\nrank\n"


def test_write_text_atomic_writes_exact_text(tmp_path):
    path = tmp_path / "sub" / "out.txt"
    reports.write_text_atomic(str(path), "a\r\nb\n")
    assert path.read_bytes() == b"a\r\nb\n"
    assert os.listdir(tmp_path / "sub") == ["out.txt"]


def test_write_text_atomic_leaves_no_temp_file_when_writing_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(reports.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        reports.write_text_atomic(str(tmp_path / "out.txt"), "text")
    assert os.listdir(tmp_path) == []
