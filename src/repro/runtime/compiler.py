"""Fragment compilation: lower fragment bodies to Python closures.

This is the hosts' only execution path.  Fragment bodies are
straight-line and immutable once the splitter has produced them, so the
``isinstance`` dispatch over IR nodes is resolved **once**: this module
compiles each expression into a closure ``fn(host, frame) -> value``,
each op into a closure ``fn(host, state) -> None``, and each terminator
into a closure ``fn(host, state) -> Optional[ExecutionState]``.

Closures take the executing host as a parameter rather than closing over
it, so a split program is compiled once and shared by every
:class:`~repro.runtime.host.TrustedHost` built from it (the compiled
form is memoized on the ``SplitProgram`` object).  ``run_chain``
compiles a fragment on its first entry, so building a runtime image
does no compile work.

A tree-walking reference interpreter lives in the test suite
(``tests/runtime/interpreter.py``); the differential tests in
``tests/runtime/test_compiled_differential.py`` run seeded programs
through both and require bit-identical observables.

Operation accounting: ``run_chain`` charges ``len(fragment.ops) + 1``
simulated ops per fragment, the same count the reference interpreter
charges, so message counts and simulated times match it exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from ..labels import Label
from ..splitter import ir
from ..splitter.fragments import (
    Fragment,
    OpAssignVar,
    OpForward,
    OpSetElem,
    OpSetField,
    SplitProgram,
    TermBranch,
    TermCall,
    TermHalt,
    TermJump,
    TermReturn,
)
from .values import ObjectRef

#: ``fn(host, frame) -> value``
ExprFn = Callable[[Any, Any], Any]
#: ``fn(host, state) -> None``
OpFn = Callable[[Any, Any], None]
#: ``fn(host, state) -> Optional[ExecutionState]``
TermFn = Callable[[Any, Any], Any]


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


def _java_div(left: int, right: int) -> int:
    # Java semantics: truncate toward zero.
    quotient = abs(left) // abs(right)
    return quotient if (left >= 0) == (right >= 0) else -quotient


def compile_expr(expr: ir.IRExpr) -> ExprFn:
    """One closure per IR node; dispatch happens here, not per step."""
    if isinstance(expr, ir.Const):
        value = expr.value
        return lambda host, frame: value
    if isinstance(expr, ir.VarUse):
        name = expr.name
        return lambda host, frame: host.var(frame, name)
    if isinstance(expr, ir.FieldUse):
        cls, field = expr.cls, expr.field
        if expr.obj is None:
            return lambda host, frame: host.read_field(cls, field, None)
        obj_fn = compile_expr(expr.obj)

        def field_use(host, frame):
            ref = obj_fn(host, frame)
            if ref is None:
                raise RuntimeError("null dereference in field read")
            return host.read_field(cls, field, ref.oid)

        return field_use
    if isinstance(expr, ir.BinOp):
        return _compile_binop(expr)
    if isinstance(expr, ir.UnOp):
        operand_fn = compile_expr(expr.operand)
        if expr.op == "!":
            return lambda host, frame: not operand_fn(host, frame)
        return lambda host, frame: -operand_fn(host, frame)
    if isinstance(expr, ir.NewObj):
        cls = expr.cls
        return lambda host, frame: ObjectRef(cls)
    if isinstance(expr, ir.NewArr):
        length_fn = compile_expr(expr.length)
        label = expr.label

        def new_arr(host, frame):
            # Routed through the host so the allocation is WAL-logged
            # when a durable store is attached (crash recovery).
            return host.alloc_array(length_fn(host, frame), label)

        return new_arr
    if isinstance(expr, ir.ArrayUse):
        array_fn = compile_expr(expr.array)
        index_fn = compile_expr(expr.index)
        return lambda host, frame: host.read_element(
            array_fn(host, frame), index_fn(host, frame)
        )
    if isinstance(expr, ir.ArrayLen):
        array_fn = compile_expr(expr.array)

        def array_len(host, frame):
            ref = array_fn(host, frame)
            if ref is None:
                raise RuntimeError("null dereference in array length")
            return ref.length

        return array_len
    if isinstance(expr, ir.DowngradeExpr):
        # declassify/endorse have no run-time cost (Section 2.2).
        return compile_expr(expr.inner)
    raise AssertionError(f"unknown expression {expr!r}")


def _compile_binop(expr: ir.BinOp) -> ExprFn:
    op = expr.op
    left_fn = compile_expr(expr.left)
    right_fn = compile_expr(expr.right)
    if op == "&&":
        return lambda host, frame: bool(left_fn(host, frame)) and bool(
            right_fn(host, frame)
        )
    if op == "||":
        return lambda host, frame: bool(left_fn(host, frame)) or bool(
            right_fn(host, frame)
        )
    if op == "+":
        return lambda host, frame: left_fn(host, frame) + right_fn(host, frame)
    if op == "-":
        return lambda host, frame: left_fn(host, frame) - right_fn(host, frame)
    if op == "*":
        return lambda host, frame: left_fn(host, frame) * right_fn(host, frame)
    if op == "/":
        return lambda host, frame: _java_div(
            left_fn(host, frame), right_fn(host, frame)
        )
    if op == "%":

        def java_mod(host, frame):
            left = left_fn(host, frame)
            right = right_fn(host, frame)
            return left - _java_div(left, right) * right

        return java_mod
    if op == "==":
        return lambda host, frame: left_fn(host, frame) == right_fn(host, frame)
    if op == "!=":
        return lambda host, frame: left_fn(host, frame) != right_fn(host, frame)
    if op == "<":
        return lambda host, frame: left_fn(host, frame) < right_fn(host, frame)
    if op == "<=":
        return lambda host, frame: left_fn(host, frame) <= right_fn(host, frame)
    if op == ">":
        return lambda host, frame: left_fn(host, frame) > right_fn(host, frame)
    if op == ">=":
        return lambda host, frame: left_fn(host, frame) >= right_fn(host, frame)
    raise AssertionError(f"unknown operator {op!r}")


# ----------------------------------------------------------------------
# Ops
# ----------------------------------------------------------------------


def compile_op(op) -> OpFn:
    if isinstance(op, OpAssignVar):
        var = op.var
        expr_fn = compile_expr(op.expr)

        def assign_var(host, state):
            host.set_var(state.frame, var, expr_fn(host, state.frame))

        return assign_var
    if isinstance(op, OpSetField):
        cls, field = op.cls, op.field
        expr_fn = compile_expr(op.expr)
        if op.obj is None:

            def set_static(host, state):
                host.write_field(cls, field, None, expr_fn(host, state.frame))

            return set_static
        obj_fn = compile_expr(op.obj)

        def set_field(host, state):
            value = expr_fn(host, state.frame)
            ref = obj_fn(host, state.frame)
            if ref is None:
                raise RuntimeError("null dereference in field write")
            host.write_field(cls, field, ref.oid, value)

        return set_field
    if isinstance(op, OpSetElem):
        array_fn = compile_expr(op.array)
        index_fn = compile_expr(op.index)
        expr_fn = compile_expr(op.expr)

        def set_elem(host, state):
            frame = state.frame
            host.write_element(
                array_fn(host, frame),
                index_fn(host, frame),
                expr_fn(host, frame),
            )

        return set_elem
    if isinstance(op, OpForward):
        var = op.var
        targets = tuple(op.hosts)

        def forward(host, state):
            frame = state.frame
            value = host.var(frame, var)
            plan = host.split.methods[frame.method_key]
            label = plan.var_labels.get(var, Label.constant())
            slot = (frame.fid, var)
            for target in targets:
                if target == host.name:
                    continue
                host.defer_forward(target, slot, value, label, frame)
            if host.opt_level == 0:
                host.flush_forwards(piggyback_for=None)

        return forward
    raise AssertionError(f"unknown op {op!r}")


# ----------------------------------------------------------------------
# Terminators
# ----------------------------------------------------------------------


def compile_terminator(terminator) -> TermFn:
    if isinstance(terminator, TermJump):
        plan = terminator.plan
        return lambda host, state: host._run_plan(plan, state)
    if isinstance(terminator, TermBranch):
        cond_fn = compile_expr(terminator.cond)
        plan_true = terminator.plan_true
        plan_false = terminator.plan_false

        def branch(host, state):
            plan = plan_true if cond_fn(host, state.frame) else plan_false
            return host._run_plan(plan, state)

        return branch
    if isinstance(terminator, TermCall):
        arg_fns = tuple(
            (param, compile_expr(expr)) for param, expr in terminator.args
        )

        def call(host, state):
            frame = state.frame
            arg_values = {
                param: expr_fn(host, frame) for param, expr_fn in arg_fns
            }
            return host._finish_call(terminator, state, arg_values)

        return call
    if isinstance(terminator, TermReturn):
        if terminator.expr is None:
            return lambda host, state: host._finish_return(state, None)
        expr_fn = compile_expr(terminator.expr)
        return lambda host, state: host._finish_return(
            state, expr_fn(host, state.frame)
        )
    if isinstance(terminator, TermHalt):

        def halt(host, state):
            from .host import HaltSignal

            raise HaltSignal()

        return halt
    raise AssertionError(f"unknown terminator {terminator!r}")


# ----------------------------------------------------------------------
# Fragments / whole programs
# ----------------------------------------------------------------------


class CompiledFragment:
    """A fragment lowered to closures, ready for ``run_chain``."""

    __slots__ = ("host", "charge", "ops", "terminator")

    def __init__(self, fragment: Fragment) -> None:
        self.host = fragment.host
        #: one simulated op per IR op plus one for the terminator.
        self.charge = len(fragment.ops) + 1
        self.ops: Tuple[OpFn, ...] = tuple(
            compile_op(op) for op in fragment.ops
        )
        self.terminator: TermFn = compile_terminator(fragment.terminator)


def compile_split(split: SplitProgram) -> Dict[str, CompiledFragment]:
    """The compiled-fragment cache of a split program (entry ->
    :class:`CompiledFragment`), memoized on ``split``.

    All hosts built from the same ``SplitProgram`` share one cache; the
    closures receive the executing host as a parameter.  The cache
    starts empty and ``run_chain`` fills it as each fragment is first
    entered, so a fragment altered *between* splitting and execution —
    the fault-injection tests do this deliberately — is compiled as
    altered.  Fragments are assumed immutable once running.
    """
    cached = getattr(split, "_compiled", None)
    if cached is None:
        cached = split._compiled = {}
    return cached
