"""Memory budgets of ingest and of writing ``labeled.csv``, under tracemalloc.

The input is the fixture's rows repeated to ``ROWS`` rows, each with its own
class id, written to a file so the CSV text itself is never in memory.
"""

import os
import tracemalloc

import pytest

from conftest import FIXTURES
from testability import cli, dataset

ROWS = 5000

#: The most that ingest may trace at its peak, in sizes of the matrix it returns.
INGEST_PEAK_MATRICES = 3.0

#: Rows per block while ``label`` is measured, and the most a block's cells
#: may take per cell: the text, its str object, and a share of the row tuple.
BLOCK_ROWS = 64
BYTES_PER_CELL = 160


@pytest.fixture
def big_csv(tmp_path):
    with open(os.path.join(FIXTURES, "metrics.csv"), encoding="utf-8") as handle:
        header, *rows = handle.read().splitlines()
    path = tmp_path / "big.csv"
    with open(path, "w", encoding="utf-8") as out:
        out.write(header + "\n")
        for i in range(ROWS):
            class_id, rest = rows[i % len(rows)].split(",", 1)
            out.write(f"{class_id}.r{i},{rest}\n")
    return path


def traced_peak(call):
    """``call()``'s result and the most memory it held at once."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base


def test_ingest_holds_about_one_copy_of_the_matrix(big_csv):
    def ingest():
        with open(big_csv, encoding="utf-8", newline="") as handle:
            return dataset.ingest_csv(handle)

    data, peak = traced_peak(ingest)
    assert data.values.shape == (ROWS, 37)
    assert peak <= INGEST_PEAK_MATRICES * data.values.nbytes, (peak, data.values.nbytes)


def test_label_formats_one_block_of_cells_at_a_time(big_csv, tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "CSV_BLOCK_ROWS", BLOCK_ROWS)
    real = cli._ingest_and_label
    held = []  # the ingested rows, kept so that freeing them hides no formatting
    labelled_at = []  # memory held when labelling is done

    def ingest_and_label(config):
        held.append(real(config))
        labelled_at.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return held[0]

    monkeypatch.setattr(cli, "_ingest_and_label", ingest_and_label)
    args = cli.make_parser().parse_args(
        ["label", "--dataset", str(big_csv), "--out", str(tmp_path)])
    tracemalloc.start()
    try:
        [(_, text)], _ = cli.cmd_label(cli.build_config(args), args)
        added = tracemalloc.get_traced_memory()[1] - labelled_at[0]
    finally:
        tracemalloc.stop()
    labelled = len(held[0][1])
    cells_per_row = len(text.split("\n", 1)[0].split(","))
    assert 2000 < labelled < ROWS and text.count("\n") == labelled + 1
    budget = 2 * len(text) + BLOCK_ROWS * cells_per_row * BYTES_PER_CELL
    assert added <= budget, (added, budget)
