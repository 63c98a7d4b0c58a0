"""The splitter driver: source program + trust configuration → SplitProgram.

This is the top of the Section 6 pipeline::

    check → lower → candidates (Section 4) → host assignment (Section 6)
          → fragment translation (Section 5.5) → data forwarding (5.2)
          → ACL generation (5.1) → validation → SplitProgram

The resulting :class:`SplitProgram` is what the distributed runtime
executes; it embeds a one-way hash of the splitter inputs (Section 8) so
subprograms produced under different assumptions refuse to interoperate.
The program half of that hash is ``Program.source``, the text the parser
was given, so a string and an already-checked program hash alike.

There is no memo: every :func:`split_program` call runs the whole
pipeline and :func:`~repro.splitter.validate.validate_split`, so no split
reaches a host unvalidated.  Callers that re-run one program share the
:class:`SplitProgram` (or the ``RuntimeImage`` built from it) instead.
"""

from __future__ import annotations

from typing import Union

from ..lang.typecheck import CheckedProgram, check_source
from ..trust import TrustConfiguration
from . import ir
from .forwarding import insert_forwards
from .fragments import FieldPlacement, MethodPlan, SplitProgram
from .lower import lower_program
from .optimizer import Assignment, assign_hosts
from .selection import CandidateSets, SplitError, compute_candidates
from .transfers import translate
from .validate import validate_split


class SplitResult:
    """The split program plus the intermediate artifacts, for inspection
    and reporting (e.g. regenerating the Figure 4 control-flow graph)."""

    __slots__ = ("split", "checked", "program", "candidates", "assignment")

    def __init__(
        self,
        split: SplitProgram,
        checked: CheckedProgram,
        program: ir.IRProgram,
        candidates: CandidateSets,
        assignment: Assignment,
    ) -> None:
        self.split = split
        self.checked = checked
        self.program = program
        self.candidates = candidates
        self.assignment = assignment


def split_program(
    source: Union[str, CheckedProgram],
    config: TrustConfiguration,
) -> SplitResult:
    """Partition a mini-Jif program for the given trust configuration."""
    if isinstance(source, str):
        checked = check_source(source, config.hierarchy)
    else:
        checked = source
    program = lower_program(checked)
    if program.main_key is None:
        raise SplitError("program has no main method to start from")
    candidates = compute_candidates(checked, program, config)
    assignment = assign_hosts(checked, program, config, candidates)
    fragments, entries = translate(program, assignment, config)
    insert_forwards(fragments, entries, program)

    split = SplitProgram(config, config.digest(checked.program.source))
    split.fragments = fragments
    for key, info in checked.fields.items():
        host = assignment.fields[key]
        readers = frozenset(
            descriptor.name
            for descriptor in config.hosts
            if info.label.conf.flows_to(descriptor.conf, config.hierarchy)
        )
        writers = frozenset(
            descriptor.name
            for descriptor in config.hosts
            if descriptor.integ.flows_to(info.label.integ, config.hierarchy)
        )
        split.fields[key] = FieldPlacement(
            key[0],
            key[1],
            info.base,
            host,
            info.label,
            info.loc_label,
            readers,
            writers,
            info.init_value,
        )
    for key, method in program.methods.items():
        split.methods[key] = MethodPlan(
            key[0],
            key[1],
            entries[key],
            method.params,
            method.var_bases,
            method.locals,
            method.return_base,
        )
    split.main_entry = entries[program.main_key]
    # Defense in depth: abstractly interpret the fragment graph to prove
    # the sync/lgoto pairs keep the ICS a stack and every transfer obeys
    # Section 5.5 (see splitter/validate.py).
    validate_split(split)
    return SplitResult(split, checked, program, candidates, assignment)


def split_source(source: str, config: TrustConfiguration) -> SplitResult:
    """Convenience wrapper returning the full :class:`SplitResult`."""
    return split_program(source, config)
