"""The right to run solver code, waited for FIFO on a lock, not on the GIL.

Threads here stand in for MPI ranks and served jobs.  Free-running, two of
them trade the GIL at every NumPy call and each runs far slower than alone;
so only the holder of a :class:`Turn` runs.  Waiters sleep on a lock each and
wake in arrival order: a releaser cannot take the turn back past a waiter.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager


class Turn:
    """A FIFO mutex that knows its holder (a thread ident)."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._queue: deque[tuple[int, threading.Lock]] = deque()
        self._holder: int | None = None
        self._last: int | None = None
        self._since = 0.0
        #: times the turn went to a thread other than the one that had it last
        self.handovers = 0

    def _grant(self, ident: int | None) -> None:
        self._holder, self._since = ident, time.monotonic()
        if ident is not None and ident != self._last:
            self.handovers += self._last is not None
            self._last = ident

    def acquire(self) -> None:
        me = threading.get_ident()
        with self._mutex:
            if self._holder is None:
                return self._grant(me)
            gate = threading.Lock()
            gate.acquire()
            self._queue.append((me, gate))
        gate.acquire()  # opened by the releasing thread, holder already set

    def release(self, ident: int | None = None) -> None:
        """Pass the turn to the longest waiter.  A no-op unless ``ident`` (the
        caller by default) holds it: a monitor can make a hung thread forfeit."""
        with self._mutex:
            if self._holder != (ident or threading.get_ident()):
                return
            nxt, gate = self._queue.popleft() if self._queue else (None, None)
            self._grant(nxt)
        if gate is not None:
            gate.release()

    @contextmanager
    def released(self):
        """Give the turn up around a blocking call; a no-op off-holder."""
        if self._holder != threading.get_ident():
            yield
            return
        self.release()
        try:
            yield
        finally:
            self.acquire()

    def pass_on(self, after_s: float) -> None:
        """To the back of the queue, if any, once held longer than ``after_s``."""
        if self._holder == threading.get_ident() and self._queue \
                and time.monotonic() - self._since > after_s:
            self.release()
            self.acquire()

    def snapshot(self) -> tuple[int | None, float, frozenset[int]]:
        """``(holder, seconds it has held, waiters)``, read atomically."""
        with self._mutex:
            return (self._holder, time.monotonic() - self._since,
                    frozenset(ident for ident, _ in self._queue))
