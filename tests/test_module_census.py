"""The module census in ``docs/architecture.md``: every module in
``src/repro`` has a row naming what reads it, and every row is a module.

A reader cell names files (``tests/...``, ``benchmarks/...``,
``examples/...``) and ``BENCHMARK.json`` workloads in backticks; each file
must exist, and each cell must name at least one file or workload.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
HEADING = "## Module census"
FILE = re.compile(r"^(tests|benchmarks|examples|docs)/\S+$")


def census_rows() -> dict[str, str]:
    text = (ROOT / "docs" / "architecture.md").read_text()
    assert HEADING in text, "docs/architecture.md has no module census"
    section = text.split(HEADING, 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        module = cells[0].strip("`")
        assert module not in rows, f"{module} has two rows"
        assert cells[1].isdigit(), f"{module}: line count {cells[1]!r}"
        rows[module] = cells[2]
    return rows


def test_every_module_has_exactly_one_row():
    on_disk = {p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py")}
    rows = set(census_rows())
    assert sorted(on_disk - rows) == [], "modules with no census row"
    assert sorted(rows - on_disk) == [], "census rows with no module"


def test_every_reader_cell_names_an_existing_file_or_workload():
    workloads = {w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    for module, reader in census_rows().items():
        names = re.findall(r"`([^`]+)`", reader)
        files = [n for n in names if FILE.match(n)]
        missing = [f for f in files if not (ROOT / f).exists()]
        assert not missing, f"{module}: reader names missing files {missing}"
        assert files or workloads & set(names), \
            f"{module}: reader names no file and no workload: {reader!r}"
