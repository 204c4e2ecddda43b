"""Per-step transfer planning from a placement.

"Finch will automatically determine what variables need to be updated and
communicated during each step.  Other values will either only be sent once,
or not at all." (Sec. II-B.)  Given which tasks read/write which arrays and
where the tasks landed, classify every array:

* ``static`` — read by GPU tasks, never written after setup: one H2D at
  initialisation (geometry, coefficient tables);
* ``h2d_each_step`` — written by a CPU task, read by a GPU task (``Io``,
  ``beta`` after the temperature update; the boundary part ``du_bdry``);
* ``d2h_each_step`` — written by a GPU task, read by a CPU task (the band
  energies the post-step reads, the owner values ``u_bdry`` the boundary
  callbacks read);
* ``host_only`` / ``device_only`` — never cross (the unknown itself, once
  every task that touches it is on the device).

With ``finish_step`` on the CPU the unknown is in both per-step lists: the
paper's plan.  The hybrid targets emit their step from this schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codegen.placement.optimizer import PlacementPlan


@dataclass(frozen=True)
class ArrayUse:
    """Which tasks read/write one named array, and its size.

    ``double_buffered`` marks arrays the generated code shadows on the
    device (the unknown: the kernel writes ``u_new`` while the overlapped
    CPU boundary callbacks read their copy of the pre-step owner values):
    the race verifier exempts them from same-step read/write hazards.
    """

    name: str
    nbytes: float
    readers: tuple[str, ...] = ()
    writers: tuple[str, ...] = ()
    mutated_each_step: bool = True
    double_buffered: bool = False


@dataclass
class TransferPlan:
    """The communication schedule implied by a placement."""

    static_h2d: list[str] = field(default_factory=list)
    h2d_each_step: list[str] = field(default_factory=list)
    d2h_each_step: list[str] = field(default_factory=list)
    host_only: list[str] = field(default_factory=list)
    device_only: list[str] = field(default_factory=list)
    bytes_h2d_per_step: float = 0.0
    bytes_d2h_per_step: float = 0.0

    def report(self) -> str:
        lines = ["transfer plan:"]
        if self.static_h2d:
            lines.append(f"  once (setup H2D):   {', '.join(self.static_h2d)}")
        if self.h2d_each_step:
            lines.append(
                f"  every step H2D:     {', '.join(self.h2d_each_step)} "
                f"({self.bytes_h2d_per_step / 1e6:.3f} MB)"
            )
        if self.d2h_each_step:
            lines.append(
                f"  every step D2H:     {', '.join(self.d2h_each_step)} "
                f"({self.bytes_d2h_per_step / 1e6:.3f} MB)"
            )
        if self.host_only:
            lines.append(f"  host only:          {', '.join(self.host_only)}")
        if self.device_only:
            lines.append(f"  device only:        {', '.join(self.device_only)}")
        return "\n".join(lines)


def plan_transfers(plan: PlacementPlan, arrays: list[ArrayUse]) -> TransferPlan:
    """Classify arrays given the task placement."""
    out = TransferPlan()
    for arr in arrays:
        read_gpu = any(plan.device.get(t) == "gpu" for t in arr.readers)
        read_cpu = any(plan.device.get(t) == "cpu" for t in arr.readers)
        written_gpu = any(plan.device.get(t) == "gpu" for t in arr.writers)
        written_cpu = any(plan.device.get(t) == "cpu" for t in arr.writers)

        # an array can cross both ways each step (the unknown: updated on
        # the device, read and corrected by CPU tasks, read again next step)
        h2d = read_gpu and written_cpu and arr.mutated_each_step
        d2h = written_gpu and read_cpu
        if h2d:
            out.h2d_each_step.append(arr.name)
            out.bytes_h2d_per_step += arr.nbytes
        if d2h:
            out.d2h_each_step.append(arr.name)
            out.bytes_d2h_per_step += arr.nbytes
        if h2d or d2h:
            continue
        if read_gpu and not written_gpu and not written_cpu:
            out.static_h2d.append(arr.name)
        elif read_gpu or written_gpu:
            out.device_only.append(arr.name)
        else:
            out.host_only.append(arr.name)
    return out


__all__ = ["ArrayUse", "TransferPlan", "plan_transfers"]
