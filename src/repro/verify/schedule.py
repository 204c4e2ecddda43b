"""Layer 2b: static SPMD send/recv matching.

The distributed targets communicate through a *static* per-step schedule:
the halo exchange posts all sends, then blocks on the recvs implied by the
partition layout, and the post-step reductions are symmetric collectives.
In that shape a schedule can only go wrong through its layout, so the
check is the layout's symmetry: every send has a receive of the same width
and every receive a send.
"""

from __future__ import annotations

from repro.verify.diagnostics import Diagnostic, DiagnosticReport


def check_halo_symmetry(send_cells, recv_cells,
                        nparts: int | None = None) -> DiagnosticReport:
    """Every send must have a matching recv of the same width, and vice
    versa (RPR210/211/213)."""
    report = DiagnosticReport()
    report.checks_run += 3
    nparts = nparts if nparts is not None else len(send_cells)
    for rank in range(nparts):
        for peer, cells in send_cells[rank].items():
            back = recv_cells[peer].get(rank) if 0 <= peer < nparts else None
            if back is None:
                report.add(Diagnostic.from_code(
                    "RPR210",
                    f"rank {rank} sends {len(cells)} cell(s) to rank {peer}, "
                    "which posts no matching receive",
                    rank=rank, peer=peer))
            elif len(back) != len(cells):
                report.add(Diagnostic.from_code(
                    "RPR213",
                    f"halo width mismatch: rank {rank} sends {len(cells)} "
                    f"cell(s) to rank {peer}, which expects {len(back)}",
                    rank=rank, peer=peer))
        for peer in recv_cells[rank]:
            if peer < 0 or peer >= nparts \
                    or rank not in send_cells[peer]:
                report.add(Diagnostic.from_code(
                    "RPR211",
                    f"rank {rank} expects a halo from rank {peer}, which "
                    "sends it nothing (the receive would block forever)",
                    rank=rank, peer=peer))
    return report


def verify_solver_schedule(solver) -> DiagnosticReport:
    """Schedule checks for a generated solver (no-op without a layout)."""
    layout = getattr(solver, "layout", None)
    if layout is None or not getattr(layout, "send_cells", None):
        return DiagnosticReport()
    return check_halo_symmetry(layout.send_cells, layout.recv_cells,
                               layout.nparts)


__all__ = ["check_halo_symmetry", "verify_solver_schedule"]
