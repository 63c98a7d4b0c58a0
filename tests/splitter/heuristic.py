"""The chain-DP heuristic as a test oracle.

Production placement takes the exact min-cut whenever
:func:`repro.splitter.mincut.try_exact` applies and the heuristic
:class:`~repro.splitter.optimizer.Optimizer` otherwise.  To hold the
heuristic to the same contracts on instances the exact path would take,
:func:`heuristic_split` makes ``try_exact`` decline and runs the full
pipeline.
"""

import pytest

from repro.splitter import mincut
from repro.splitter.partition import SplitResult, split_program


def heuristic_split(source, config) -> SplitResult:
    """Split ``source`` with the heuristic placement only.

    Uses ``MonkeyPatch.context()`` rather than the ``monkeypatch``
    fixture so Hypothesis tests (which reject function-scoped fixtures)
    can call it too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mincut, "try_exact", lambda *args: None)
        return split_program(source, config)
