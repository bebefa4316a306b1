"""A scheduler whose rounds a test can hold open.

The service runs ``scheduler.schedule`` in a worker thread; wrapping the
real scheduler so that ``schedule`` first waits for a gate lets a pacing
test *choose* what arrives while a round is in flight -- hold the gate,
send the requests, release -- instead of guessing with sleeps and a long
``round_interval``.
"""

from __future__ import annotations

import asyncio
import threading
import time


class GatedScheduler:
    """Delegates to ``inner``; ``schedule`` blocks while the gate is held."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self._open = threading.Event()
        self._open.set()
        self._waiting = threading.Event()

    def hold(self) -> None:
        """Make the next ``schedule`` call block until :meth:`release`."""
        self._waiting.clear()
        self._open.clear()

    def release(self) -> None:
        self._open.set()

    async def round_in_flight(self, timeout: float = 10.0) -> None:
        """Return once a ``schedule`` call is blocked at the gate."""
        deadline = time.monotonic() + timeout
        while not self._waiting.is_set():
            assert time.monotonic() < deadline, "no round reached the gate"
            await asyncio.sleep(0.001)

    def schedule(self, state, now):
        if not self._open.is_set():
            self._waiting.set()
            assert self._open.wait(timeout=30.0), "the gate was never released"
        return self.inner.schedule(state, now)

    def apply(self, state, decision, now) -> None:
        self.inner.apply(state, decision, now)

    def close(self) -> None:
        self.release()
        close = getattr(self.inner, "close", None)
        if callable(close):
            close()
