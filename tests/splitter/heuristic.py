"""The chain-DP heuristic as a test oracle.

Production placement takes the exact min-cut whenever
:func:`repro.splitter.mincut.try_exact` applies and the heuristic
:class:`~repro.splitter.optimizer.Optimizer` otherwise.  To hold the
heuristic to the same contracts on instances the exact path would take,
:func:`heuristic_split` makes ``try_exact`` decline and runs the full
pipeline.  It calls ``_split_uncached`` because the split cache key
names no placement engine: a cached lookup could return the production
split.
"""

import pytest

from repro.splitter import mincut
from repro.splitter.partition import SplitResult, _split_uncached


def heuristic_split(source, config) -> SplitResult:
    """Split ``source`` with the heuristic placement only, uncached.

    Uses ``MonkeyPatch.context()`` rather than the ``monkeypatch``
    fixture so Hypothesis tests (which reject function-scoped fixtures)
    can call it too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mincut, "try_exact", lambda *args: None)
        return _split_uncached(source, config)
