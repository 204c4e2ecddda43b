"""Shared helpers for the figure-regeneration benchmarks.

Every ``test_figN_*``/``test_tabN_*`` module regenerates the data behind one
table or figure of the paper's evaluation (see DESIGN.md's experiment
index).  Each prints the regenerated rows/series (run with ``-s`` to see
them inline; they are also written to ``benchmarks/output/``) and uses the
``benchmark`` fixture to time the representative computation.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def _slug(name: str) -> str:
    return name.split(":")[0].strip().replace(" ", "_").lower()


def write_figure(
    output_dir: Path,
    name: str,
    text: str,
    rows: list[list] | None = None,
    header: list[str] | None = None,
    timings: dict[str, float] | None = None,
) -> None:
    """Print a figure's regenerated data and persist it under ``output_dir``.

    Always writes the human-readable ``<slug>.txt`` banner; when ``rows``
    (with an optional ``header``) or ``timings`` are supplied, a
    machine-readable ``<slug>.json`` (``name``, ``header``, ``rows``,
    ``timings``) is written next to it so the regenerated series can be
    diffed or plotted without re-parsing text.
    """
    banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}\n"
    print(banner)
    slug = _slug(name)
    (output_dir / f"{slug}.txt").write_text(banner)
    if rows is not None or timings is not None:
        payload: dict = {"name": name}
        if rows is not None:
            payload["header"] = header
            payload["rows"] = rows
        if timings is not None:
            payload["timings"] = timings
        (output_dir / f"{slug}.json").write_text(
            json.dumps(payload, indent=2, default=float) + "\n"
        )


@pytest.fixture
def record_figure(output_dir):
    """:func:`write_figure` into ``benchmarks/output/``."""
    return functools.partial(write_figure, output_dir)


def format_series_table(header: list[str], rows: list[list]) -> str:
    widths = [max(len(str(h)), 12) for h in header]
    out = ["".join(f"{h:>{w}}" for h, w in zip(header, widths))]
    for row in rows:
        cells = []
        for v, w in zip(row, widths):
            if isinstance(v, float):
                cells.append(f"{v:>{w}.3f}")
            else:
                cells.append(f"{str(v):>{w}}")
        out.append("".join(cells))
    return "\n".join(out)
