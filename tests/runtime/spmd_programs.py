"""Seeded random SPMD programs, for the turn tests and their golden file.

``make_ops(seed, nranks)`` draws one *global* list of operations; each rank
runs its projection of it (the sender's half of a message, the receiver's
half, its seat in a collective).  Sends are buffered, so every projection of
one global order is deadlock-free.  ``run(ops, nranks)`` executes it under
``run_spmd`` and returns a JSON-safe record of everything the turn must not
change: results, final virtual times, ``CommStats`` and, per rank, the
sequence of (operation, virtual clock after it, digest of what it returned).

The golden file ``data/spmd_programs_golden.json`` was written by
``python -m tests.runtime.spmd_programs`` at the commit *before* ranks took
turns (free-running threads).
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from pathlib import Path

import numpy as np

from repro.runtime.comm import ReduceOp
from repro.runtime.executor import run_spmd
from repro.runtime.netmodel import IB_CLUSTER

GOLDEN = Path(__file__).parent / "data" / "spmd_programs_golden.json"
GOLDEN_CASES = [(seed, 2 + seed % 4) for seed in range(1900, 1912)]
KINDS = ("compute", "send", "exchange", "allreduce", "allgather", "barrier")


def make_ops(seed: int, nranks: int, length: int = 24) -> list[tuple]:
    rng = random.Random(seed)
    ops: list[tuple] = []
    for k in range(length):
        kind = rng.choice(KINDS)
        if kind == "compute":
            # every rank at once: free-running threads would overlap here
            ops.append((kind, [rng.uniform(1e-6, 1e-3) for _ in range(nranks)],
                        rng.choice(("solve", "post"))))
        elif kind == "send":
            src, dst = rng.sample(range(nranks), 2)
            ops.append((kind, src, dst, rng.randrange(3), rng.randrange(1, 64), k))
        elif kind == "exchange":
            group = sorted(rng.sample(range(nranks), rng.randrange(2, nranks + 1)))
            ops.append((kind, group, 3 + rng.randrange(2), rng.randrange(1, 32), k))
        elif kind == "allreduce":
            ops.append((kind, rng.choice(list(ReduceOp)).value, rng.randrange(1, 16), k))
        else:
            ops.append((kind, k))
    return ops


def _payload(rank: int, n: int, k: int) -> np.ndarray:
    return np.arange(n, dtype=np.float64) * (rank + 1) + k


def _digest(value) -> str:
    if isinstance(value, dict):
        value = [value[q] for q in sorted(value)]
    if isinstance(value, (list, tuple)):
        return "|".join(_digest(v) for v in value)
    if value is None:
        return "-"
    return hashlib.sha256(np.asarray(value, dtype=np.float64).tobytes()).hexdigest()[:16]


class Sections:
    """How many ranks are inside a compute section at once (and the most)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.inside = 0
        self.most = 0

    def __enter__(self) -> None:
        with self._lock:
            self.inside += 1
            self.most = max(self.most, self.inside)

    def __exit__(self, *exc) -> None:
        with self._lock:
            self.inside -= 1


def rank_program(ops: list[tuple], sections: Sections):
    def program(comm):
        me, events, scratch = comm.rank, [], np.zeros(2048)
        for op in ops:
            kind, out = op[0], None
            if kind == "compute":
                with sections:
                    for _ in range(8):  # big enough to drop the GIL mid-section
                        np.sin(scratch, out=scratch)
                    comm.compute(op[1][me], phase=op[2])
            elif kind == "send":
                _, src, dst, tag, n, k = op
                if me == src:
                    comm.send(dst, _payload(me, n, k), tag)
                elif me == dst:
                    out = comm.recv(src, tag)
                else:
                    continue
            elif kind == "exchange":
                _, group, tag, n, k = op
                if me not in group:
                    continue
                out = comm.exchange({q: _payload(me, n, k) for q in group
                                     if q != me}, tag)
            elif kind == "allreduce":
                out = comm.allreduce(_payload(me, op[2], op[3]), ReduceOp(op[1]))
            elif kind == "allgather":
                out = comm.allgather(_payload(me, 3, op[1]))
            else:
                comm.barrier()
            events.append([kind, comm.clock.now(), _digest(out)])
        return events
    return program


def run(ops: list[tuple], nranks: int, sections: Sections | None = None,
        **kwargs) -> dict:
    res = run_spmd(nranks, rank_program(ops, sections or Sections()),
                   IB_CLUSTER, **kwargs)
    return {"events": res.results, "times": res.times,
            "stats": [s.as_dict() for s in res.stats]}


if __name__ == "__main__":
    doc = {f"{seed}/{n}": run(make_ops(seed, n), n) for seed, n in GOLDEN_CASES}
    GOLDEN.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"wrote {len(doc)} programs to {GOLDEN}")
