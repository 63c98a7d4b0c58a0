"""Reference fragment interpreter: the test oracle for compiled execution.

Production hosts run every fragment through the closures built by
:mod:`repro.runtime.compiler`.  This module is the tree-walking
interpreter those closures were derived from: it re-dispatches every IR
node on every step, which makes it slow but obviously faithful to the
IR.  The differential tests install it in place of
``TrustedHost.run_chain`` (``install(monkeypatch)``) and require
bit-identical observables from both.

It charges the same ``len(fragment.ops) + 1`` simulated ops per fragment
as production and reaches host state only through the host's public
accessors and the shared ``_run_plan``/``_finish_call``/``_finish_return``
steps, so a divergence points at the compiler.
"""

from typing import Any, Optional

from repro.labels import Label
from repro.runtime.host import ExecutionState, HaltSignal, TrustedHost
from repro.runtime.values import FrameID, ObjectRef
from repro.splitter import ir
from repro.splitter.fragments import (
    Fragment,
    OpAssignVar,
    OpForward,
    OpSetElem,
    OpSetField,
    TermBranch,
    TermCall,
    TermHalt,
    TermJump,
    TermReturn,
)


def install(monkeypatch) -> None:
    """Route every ``TrustedHost.run_chain`` through this interpreter
    for the rest of the test."""
    monkeypatch.setattr(TrustedHost, "run_chain", run_chain)


def run_chain(host: TrustedHost, state: ExecutionState) -> None:
    """Execute fragments locally until control leaves ``host``."""
    while True:
        fragment = host.split.fragments[state.entry]
        assert fragment.host == host.name, (
            f"{host.name} asked to run {state.entry}"
        )
        host.network.charge_ops(len(fragment.ops) + 1)
        for op in fragment.ops:
            run_op(host, op, state)
        next_state = run_terminator(host, fragment, state)
        if next_state is None:
            return
        state = next_state


def run_op(host: TrustedHost, op, state: ExecutionState) -> None:
    frame = state.frame
    if isinstance(op, OpAssignVar):
        host.set_var(frame, op.var, evaluate(host, op.expr, frame))
    elif isinstance(op, OpSetField):
        value = evaluate(host, op.expr, frame)
        oid = None
        if op.obj is not None:
            ref = evaluate(host, op.obj, frame)
            if ref is None:
                raise RuntimeError("null dereference in field write")
            oid = ref.oid
        host.write_field(op.cls, op.field, oid, value)
    elif isinstance(op, OpSetElem):
        ref = evaluate(host, op.array, frame)
        index = evaluate(host, op.index, frame)
        value = evaluate(host, op.expr, frame)
        host.write_element(ref, index, value)
    elif isinstance(op, OpForward):
        value = host.var(frame, op.var)
        plan = host.split.methods[frame.method_key]
        label = plan.var_labels.get(op.var, Label.constant())
        slot = (frame.fid, op.var)
        for target in op.hosts:
            if target == host.name:
                continue
            host.defer_forward(target, slot, value, label, frame)
        if host.opt_level == 0:
            host.flush_forwards(piggyback_for=None)
    else:
        raise AssertionError(f"unknown op {op!r}")


def run_terminator(
    host: TrustedHost, fragment: Fragment, state: ExecutionState
) -> Optional[ExecutionState]:
    terminator = fragment.terminator
    if isinstance(terminator, TermJump):
        return host._run_plan(terminator.plan, state)
    if isinstance(terminator, TermBranch):
        cond = evaluate(host, terminator.cond, state.frame)
        plan = terminator.plan_true if cond else terminator.plan_false
        return host._run_plan(plan, state)
    if isinstance(terminator, TermCall):
        # Evaluate arguments in the caller's frame.
        arg_values = {
            param: evaluate(host, expr, state.frame)
            for param, expr in terminator.args
        }
        return host._finish_call(terminator, state, arg_values)
    if isinstance(terminator, TermReturn):
        value = (
            evaluate(host, terminator.expr, state.frame)
            if terminator.expr is not None
            else None
        )
        return host._finish_return(state, value)
    if isinstance(terminator, TermHalt):
        raise HaltSignal()
    raise AssertionError(f"unknown terminator {terminator!r}")


def evaluate(host: TrustedHost, expr: ir.IRExpr, frame: FrameID) -> Any:
    if isinstance(expr, ir.Const):
        return expr.value
    if isinstance(expr, ir.VarUse):
        return host.var(frame, expr.name)
    if isinstance(expr, ir.FieldUse):
        oid = None
        if expr.obj is not None:
            ref = evaluate(host, expr.obj, frame)
            if ref is None:
                raise RuntimeError("null dereference in field read")
            oid = ref.oid
        return host.read_field(expr.cls, expr.field, oid)
    if isinstance(expr, ir.BinOp):
        return _evaluate_binop(host, expr, frame)
    if isinstance(expr, ir.UnOp):
        operand = evaluate(host, expr.operand, frame)
        return (not operand) if expr.op == "!" else (-operand)
    if isinstance(expr, ir.NewObj):
        return ObjectRef(expr.cls)
    if isinstance(expr, ir.NewArr):
        length = evaluate(host, expr.length, frame)
        return host.alloc_array(length, expr.label)
    if isinstance(expr, ir.ArrayUse):
        ref = evaluate(host, expr.array, frame)
        index = evaluate(host, expr.index, frame)
        return host.read_element(ref, index)
    if isinstance(expr, ir.ArrayLen):
        ref = evaluate(host, expr.array, frame)
        if ref is None:
            raise RuntimeError("null dereference in array length")
        return ref.length
    if isinstance(expr, ir.DowngradeExpr):
        # declassify/endorse have no run-time cost (Section 2.2).
        return evaluate(host, expr.inner, frame)
    raise AssertionError(f"unknown expression {expr!r}")


def _evaluate_binop(host: TrustedHost, expr: ir.BinOp, frame: FrameID) -> Any:
    op = expr.op
    left = evaluate(host, expr.left, frame)
    if op == "&&":
        return bool(left) and bool(evaluate(host, expr.right, frame))
    if op == "||":
        return bool(left) or bool(evaluate(host, expr.right, frame))
    right = evaluate(host, expr.right, frame)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return _java_div(left, right)
    if op == "%":
        return left - _java_div(left, right) * right
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise AssertionError(f"unknown operator {op!r}")


def _java_div(left: int, right: int) -> int:
    # Java semantics: truncate toward zero.
    quotient = abs(left) // abs(right)
    return quotient if (left >= 0) == (right >= 0) else -quotient
