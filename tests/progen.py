"""Compatibility shim: the seeded random program generator moved into
the package (``repro.progen``) so the benchmark (``perfbench/``) can
drive the same corpus the property tests use.  Test-suite imports of
``tests.progen`` keep working through this re-export."""

from repro.progen import (  # noqa: F401
    P_FIELDS,
    P_LABEL,
    P_VARS,
    S_FIELDS,
    S_LABEL,
    S_VARS,
    config,
    generate_program,
)
