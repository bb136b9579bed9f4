"""Report bundle emission: CSV + Markdown tables, run manifest, atomic writes.

Every report embeds the manifest hash on its first line, so a bundle is
self-identifying: two runs with equal manifests produce byte-identical
files (nothing here depends on wall-clock time or directory order).
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import tempfile
from typing import Iterable, Sequence

from .correlation import CorrelationReport
from .learn.evaluation import EvalReport
from .ranking import RankingTable


def write_text_atomic(path: str, content: str) -> None:
    """Write via temp file + rename so partial output is never visible."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def manifest_text(entries: Sequence[tuple[str, str]]) -> str:
    lines = ["testability-run 1"]
    lines.extend(f"{key}: {value}" for key, value in entries)
    return "\n".join(lines) + "\n"


def manifest_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def csv_text(rows: Iterable[Sequence[str]]) -> str:
    """Rows as CSV: comma-separated, minimal quoting, "\\n" line ends."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _csv(run_hash: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """The manifest line, then header and rows as CSV."""
    return f"# manifest: {run_hash}\n" + csv_text([header, *rows])


def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def correlation_csv(report: CorrelationReport, run_hash: str) -> str:
    reported = {m for m, _ in report.entries}
    ordered = sorted(report.full_table, key=lambda e: (-abs(e[1]), e[0].column))
    rows = [[metric.column, repr(rho), str(metric in reported).lower()]
            for metric, rho in ordered]
    rows += [[metric.column, "", f"skipped: {reason}"] for metric, reason in report.skipped]
    return _csv(run_hash, ["metric", "coefficient", "reported"], rows)


def correlation_md(report: CorrelationReport, run_hash: str) -> str:
    lines = [
        "# Correlation with mutation score",
        "",
        f"Manifest: `{run_hash}`",
        "",
        f"Population: {report.population_kind} ({report.population} records); "
        f"reporting |rho| >= {report.threshold:g}.",
        "",
    ]
    lines += _md_table(
        ["Static Metric", "Correlation Coefficient"],
        [[m.column, f"{rho:.6f}"] for m, rho in report.entries],
    )
    lines += ["", "## Full table", ""]
    ordered = sorted(report.full_table, key=lambda e: (-abs(e[1]), e[0].column))
    lines += _md_table(
        ["Metric", "Coefficient"], [[m.column, f"{rho:.6f}"] for m, rho in ordered]
    )
    if report.skipped:
        lines += ["", "Skipped: " + "; ".join(
            f"{m.column} ({reason})" for m, reason in report.skipped
        )]
    return "\n".join(lines) + "\n"


_EVAL_COLUMNS = ("accuracy", "precision", "recall", "f_measure", "auc")


def classification_csv(reports: Sequence[EvalReport], run_hash: str) -> str:
    header = ["classifier", *_EVAL_COLUMNS, "folds", "seed", "tp", "fp", "tn", "fn"]
    rows = [
        [r.classifier.value]
        + [repr(getattr(r, c)) for c in _EVAL_COLUMNS]
        + [str(r.folds), str(r.seed), str(r.tp), str(r.fp), str(r.tn), str(r.fn)]
        for r in reports
    ]
    return _csv(run_hash, header, rows)


def classification_md(reports: Sequence[EvalReport], run_hash: str) -> str:
    lines = [
        "# Classification results",
        "",
        f"Manifest: `{run_hash}`",
        "",
    ]
    if reports:
        first = reports[0]
        lines += [
            f"{first.folds}-fold stratified cross-validation, seed {first.seed}; "
            f"{first.averaging} precision/recall/F; AUC over {first.auc_pooling}.",
            "",
        ]
    lines += _md_table(
        ["Classifier", "Accuracy", "Precision", "Recall", "F-Measure", "AUC"],
        [
            [r.classifier.value] + [f"{getattr(r, c):.3f}" for c in _EVAL_COLUMNS]
            for r in reports
        ],
    )
    return "\n".join(lines) + "\n"


def ranking_csv(tables: Sequence[RankingTable], run_hash: str, top: int = 10) -> str:
    header = ["rank"]
    for table in tables:
        header += [table.algorithm.value, f"{table.algorithm.value}_score"]
    depth = min(top, max((len(t.entries) for t in tables), default=0))
    rows = []
    for i in range(depth):
        row = [str(i + 1)]
        for table in tables:
            if i < len(table.entries):
                metric, score = table.entries[i]
                row += [metric.column, repr(score)]
            else:
                row += ["", ""]
        rows.append(row)
    return _csv(run_hash, header, rows)


def ranking_md(tables: Sequence[RankingTable], run_hash: str, top: int = 10) -> str:
    lines = [
        "# Feature ranking",
        "",
        f"Manifest: `{run_hash}`",
        "",
    ]
    header = [""] + [t.algorithm.value for t in tables]
    depth = min(top, max((len(t.entries) for t in tables), default=0))
    rows = []
    for i in range(depth):
        row = [f"Rank {i + 1}"]
        for table in tables:
            row.append(table.entries[i][0].column if i < len(table.entries) else "")
        rows.append(row)
    lines += _md_table(header, rows)
    return "\n".join(lines) + "\n"
