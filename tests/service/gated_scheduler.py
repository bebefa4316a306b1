"""A scheduler that runs a test's hook inside each round.

The service solves on its event loop, so while ``schedule`` runs nothing
else does: no reader, no writer, no ``stats`` reply.  Wrapping the real
scheduler so that ``schedule`` first calls a test-supplied hook lets a
pacing test *choose* what arrives while a round is in flight -- the hook
writes requests to a socket, the kernel holds them until the round ends,
and the loop reads them after its release -- instead of guessing with
sleeps and a long ``round_interval``.
"""

from __future__ import annotations

from typing import Callable, Optional


class GatedScheduler:
    """Delegates to ``inner``; ``schedule`` first calls ``hook(call)``.

    ``inner.prepare`` is passed through unless ``prepare=False``: the
    service then runs without one, as it does for a scheduler that has
    none.
    """

    def __init__(
        self,
        inner,
        hook: Optional[Callable[[int], None]] = None,
        prepare: bool = True,
    ) -> None:
        self.inner = inner
        #: Called with the 1-based number of the ``schedule`` call, on the
        #: thread that runs the round, before the solve.
        self.hook = hook
        self.calls = 0
        if prepare and hasattr(inner, "prepare"):
            self.prepare = inner.prepare

    def schedule(self, state, now):
        self.calls += 1
        if self.hook is not None:
            self.hook(self.calls)
        return self.inner.schedule(state, now)

    def apply(self, state, decision, now) -> None:
        self.inner.apply(state, decision, now)

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if callable(close):
            close()
