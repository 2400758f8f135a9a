"""The sweep CSV's columns are SweepRow's fields, in order, wherever they are
written down: the column block of docs/schemas.md and the header line of
every golden sweep CSV."""

from pathlib import Path

from caproof.analysis import SweepRow

ROOT = Path(__file__).resolve().parents[1]
SWEEP_COMMANDS = ("analyze", "sweep", "roofline-plot")


def test_schema_doc_column_block_is_the_sweep_row_fields():
    section = (ROOT / "docs" / "schemas.md").read_text(encoding="utf-8").split(
        "## Sweep CSV columns", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    assert tuple(column.strip() for column in block.split(",")) == SweepRow._fields


def test_golden_sweep_csv_headers_are_the_sweep_row_fields():
    paths = sorted(path for command in SWEEP_COMMANDS
                   for path in (ROOT / "tests" / "golden").glob(f"*/{command}.csv"))
    assert len(paths) == 6
    for path in paths:
        header = path.read_text(encoding="utf-8").split("\n", 1)[0]
        assert tuple(header.split(",")) == SweepRow._fields, path
