"""The shipped examples must run end to end (reduced argument sets)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str, timeout: int = 600) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stdout}\n{proc.stderr}"
    return proc.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "symbolic pipeline" in out
        assert "LHS volume" in out
        assert "OK" in out

    def test_bte_hotspot(self):
        out = run_example("bte_hotspot.py", "--steps", "60")
        assert "polarised bands: 13" in out
        assert "temperature field" in out
        assert "execution-time breakdown" in out

    def test_bte_corner_source(self):
        out = run_example("bte_corner_source.py", "--steps", "80")
        assert "corner is the hottest point" in out

    def test_gpu_offload(self):
        out = run_example("gpu_offload.py")
        assert "placement plan" in out
        assert "interior_update          -> GPU" in out
        assert "SM utilization" in out
        assert "relative deviation from the CPU-only solver" in out

    def test_gpu_offload_tiny_declines(self):
        out = run_example("gpu_offload.py", "--tiny")
        assert "kept everything on the CPU" in out

    def test_scaling_study(self):
        out = run_example("scaling_study.py")
        assert "bit-identical solutions" in out
        assert "paper: ~18x" in out
        assert "paper: ~2x" in out

    def test_heat_equation(self):
        out = run_example("heat_equation.py")
        assert "observed spatial order" in out

    def test_thermal_conductivity(self):
        out = run_example("thermal_conductivity.py")
        assert "k_eff/k_bulk" in out
        assert "breaks" in out

    def test_custom_operator(self):
        out = run_example("custom_operator.py")
        assert "max |upwind - rusanov| = " in out

    def test_bte_3d(self):
        out = run_example("bte_3d.py", "--steps", "40")
        assert "3-D BTE" in out
        assert "lateral mirror symmetry confirmed" in out
