"""Unit tests for fragment-level expression evaluation on a host.

Every table runs against production (``compile_expr(expr)(host,
frame)``) and, through the ``*Reference`` subclasses, against the
reference interpreter in ``tests/runtime/interpreter.py``.
"""

import pytest

from repro.runtime import FrameID, RuntimeImage, Session
from repro.runtime.compiler import compile_expr
from repro.splitter import ir, split_source

from tests.programs import SIMPLE_SOURCE, single_host_config
from tests.runtime import interpreter


@pytest.fixture(scope="module")
def host():
    result = split_source(SIMPLE_SOURCE, single_host_config())
    session = Session(RuntimeImage.for_split(result.split))
    return session.hosts["H"]


@pytest.fixture
def frame():
    return FrameID(("Simple", "main"))


def compiled_evaluate(host, expr, frame):
    return compile_expr(expr)(host, frame)


@pytest.fixture
def evaluate():
    return compiled_evaluate


def const(value):
    return ir.Const(value)


def binop(op, left, right):
    return ir.BinOp(op, const(left), const(right))


class TestArithmetic:
    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("+", 2, 3, 5),
            ("-", 2, 5, -3),
            ("*", 4, 6, 24),
            ("/", 7, 2, 3),
            ("/", -7, 2, -3),    # Java truncation toward zero
            ("/", 7, -2, -3),
            ("/", -7, -2, 3),
            ("%", 7, 2, 1),
            ("%", -7, 2, -1),    # Java remainder keeps dividend's sign
            ("%", 7, -2, 1),
            ("%", -7, -2, -1),
        ],
    )
    def test_int_ops(self, evaluate, host, frame, op, left, right, expected):
        assert evaluate(host, binop(op, left, right), frame) == expected

    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("==", 2, 2, True),
            ("==", 2, 3, False),
            ("!=", 2, 3, True),
            ("<", 2, 3, True),
            ("<=", 3, 3, True),
            (">", 3, 2, True),
            (">=", 2, 3, False),
        ],
    )
    def test_comparisons(
        self, evaluate, host, frame, op, left, right, expected
    ):
        assert evaluate(host, binop(op, left, right), frame) is expected

    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("&&", True, True, True),
            ("&&", True, False, False),
            ("&&", False, True, False),
            ("||", False, True, True),
            ("||", False, False, False),
        ],
    )
    def test_logic(self, evaluate, host, frame, op, left, right, expected):
        assert evaluate(host, binop(op, left, right), frame) is expected

    def test_unary(self, evaluate, host, frame):
        assert evaluate(host, ir.UnOp("!", const(True)), frame) is False
        assert evaluate(host, ir.UnOp("-", const(5)), frame) == -5

    def test_matches_oracle_semantics(self, evaluate, host, frame):
        """Distributed and single-host arithmetic agree on every case."""
        from repro.runtime.singlehost import SingleHostInterpreter
        from repro.splitter import lower_program
        from repro.lang import check_source

        program = lower_program(check_source(SIMPLE_SOURCE))
        oracle = SingleHostInterpreter(program)
        method = program.method("Simple", "main")
        for op in ("+", "-", "*", "/", "%"):
            for left in (-7, -1, 0, 3, 10):
                for right in (-3, -1, 2, 5):
                    expr = binop(op, left, right)
                    assert evaluate(host, expr, frame) == oracle._eval(
                        method, expr, {}
                    ), (op, left, right)


class TestArithmeticReference(TestArithmetic):
    @pytest.fixture
    def evaluate(self):
        return interpreter.evaluate


class TestFrames:
    def test_var_defaults(self, host, frame):
        assert host.var(frame, "acc") == 0

    def test_set_and_get(self, host, frame):
        host.set_var(frame, "acc", 42)
        assert host.var(frame, "acc") == 42

    def test_downgrade_is_identity_at_runtime(self, evaluate, host, frame):
        from repro.labels import Label

        expr = ir.DowngradeExpr(
            "declassify", const(9), Label.of("{}"), frozenset()
        )
        assert evaluate(host, expr, frame) == 9

    def test_new_object_has_fresh_identity(self, evaluate, host, frame):
        a = evaluate(host, ir.NewObj("Simple"), frame)
        b = evaluate(host, ir.NewObj("Simple"), frame)
        assert a != b


class TestFramesReference(TestFrames):
    @pytest.fixture
    def evaluate(self):
        return interpreter.evaluate
