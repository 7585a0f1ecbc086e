"""Helpers shared by the test modules."""

from __future__ import annotations

import pytest

from timinggames import waitinggame
from timinggames.simnet import EventEngine


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
