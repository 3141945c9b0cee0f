"""Keep the cyclic garbage collector off the solver's objects.

Parsing, building and solving allocate many objects that live as long as
the solver, and make no cyclic garbage, so a collection pass over them finds
nothing. ``paused`` runs a call with the collector disabled, then moves what
the call made to the oldest generation, which only a full collection visits.
"""
from __future__ import annotations

import functools
import gc


def paused(fn):
    """Wrap ``fn`` to run with the cyclic collector paused.

    When the collector is already off (a nested call, or a caller that
    disabled it), the wrapper only calls ``fn``. Otherwise it first collects
    the young generations, so that the caller's young cycles get their usual
    pass, and disables the collector. When ``fn`` returns or raises,
    ``gc.freeze()`` then ``gc.unfreeze()`` move every tracked object to the
    oldest generation without a young pass, unless the caller holds objects
    frozen, and the collector is enabled again.
    """
    @functools.wraps(fn)
    def call(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.collect(1)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()
    return call
