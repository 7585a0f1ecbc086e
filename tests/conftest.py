"""Helpers shared by the test modules."""

from __future__ import annotations

import numpy as np
import pytest

from timinggames import waitinggame
from timinggames.simnet import EventEngine, _connected


def run_with(config, engine_class=EventEngine, handlers_class=None):
    """``simulate(config)`` on ``engine_class`` and ``handlers_class`` (the
    chain handlers by default): its output, engine and handlers.

    ``SimulationOutput`` keeps no engine, so this is how a test reaches a
    run's engine, and with it ``engine.trace()``.
    """
    made = []

    def make(cls):
        def build(*args):
            made.append(cls(*args))
            return made[-1]

        return build

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(waitinggame, "EventEngine", make(engine_class))
        patch.setattr(waitinggame, "_ChainHandlers",
                      make(handlers_class or waitinggame._ChainHandlers))
        out = waitinggame.simulate(config)
    handlers, engine = made
    return out, engine, handlers


def gap_er_graph(n, mean_degree, seed):
    """The sampler's definition, one gap at a time: attempts made and the
    accepted graph's edge lists, in upper-triangle order.

    Attempt ``a`` reads ``np.random.default_rng([seed, a]).random()`` once
    per edge: the next edge lies 1 + floor(log1p(-U) / log1p(-p)) pairs
    after the last one, in row-major upper-triangle order.  With p >= 1
    every pair is an edge and nothing is drawn.  numpy's ``log1p``, as the
    sampler calls it, keeps the floats the same.
    """
    p = mean_degree / (n - 1)
    for attempt in range(100):
        rng = np.random.default_rng([seed, attempt])
        us, vs = [], []
        u, v = 0, 0  # the pair before the first one, (0, 1)
        while u < n - 1:
            v += 1 if p >= 1 else 1 + int(np.floor(np.log1p(-rng.random()) / np.log1p(-p)))
            while u < n - 1 and v >= n:  # carry into the next rows
                u += 1
                v -= n - u - 1
            if u < n - 1:
                us.append(u)
                vs.append(v)
        if _connected(n, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)):
            return attempt + 1, us, vs
    raise AssertionError("no connected sample")
