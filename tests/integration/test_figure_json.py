"""The per-figure JSON the paper-figure benchmarks write."""

import json

from benchmarks.conftest import write_figure


def test_figure_json_has_no_schema_and_round_trips_rows(tmp_path, capsys):
    rows = [[1, 0.5, "cpu"], [2, 0.25, "gpu"]]
    header = ["procs", "time [s]", "target"]
    write_figure(tmp_path, "FIGX: a series", "text", rows=rows, header=header)
    doc = json.loads((tmp_path / "figx.json").read_text())
    assert doc == {"name": "FIGX: a series", "header": header, "rows": rows}
    assert "FIGX: a series" in (tmp_path / "figx.txt").read_text()
