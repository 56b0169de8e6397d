"""errors.numerical, the one floating-point error policy, and a check that
no other module keeps its own copy of it."""

import ast
import contextlib
from pathlib import Path

import numpy as np
import pytest

from titan.errors import InputError, NumericalAbort, numerical

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "titan"
MODULES = sorted(path for path in PACKAGE.rglob("*.py") if path != PACKAGE / "errors.py")


def overflow():
    return np.float64(1e300) * np.float64(1e300)


@pytest.mark.parametrize("compute, error", [
    (overflow, "overflow encountered in scalar multiply"),
    (lambda: np.float64(0.0) / np.float64(0.0), "invalid value encountered in scalar divide"),
    (lambda: np.float64(1.0) / np.float64(0.0), "divide by zero encountered in scalar divide"),
], ids=["over", "invalid", "divide"])
def test_each_error_aborts_with_where_at_the_end(compute, error):
    with pytest.raises(NumericalAbort) as info:
        with numerical("in the start"):
            compute()
    assert str(info.value) == f"{error} in the start"
    assert info.value.__cause__ is None and info.value.__suppress_context__


def test_a_callable_where_is_read_when_the_error_is_raised():
    step = 0
    with pytest.raises(NumericalAbort, match="^overflow encountered in scalar multiply at iteration 3$"):
        with numerical(lambda: f"at iteration {step}"):
            for step in range(1, 4):
                if step == 3:
                    overflow()


def test_underflow_does_not_abort():
    with numerical("nowhere"):
        assert np.float64(1e-300) * np.float64(1e-300) == 0.0


@pytest.mark.parametrize("abort", [False, True], ids=["clean", "abort"])
def test_the_error_state_is_restored(abort):
    with np.errstate(over="warn", invalid="ignore", divide="print", under="ignore"):
        before = np.geterr()
        with pytest.raises(NumericalAbort) if abort else contextlib.nullcontext():
            with numerical("here"):
                assert np.geterr() == {**before, "over": "raise", "invalid": "raise", "divide": "raise"}
                if abort:
                    overflow()
        assert np.geterr() == before


def test_other_exceptions_pass_through_unchanged():
    error = InputError("bad value")
    with pytest.raises(InputError) as info:
        with numerical("here"):
            raise error
    assert info.value is error


def test_an_inner_error_state_wins_inside_the_block():
    with numerical("here"):
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isinf(overflow())
            assert np.isnan(np.float64(np.inf) - np.float64(np.inf))
        with pytest.raises(FloatingPointError):
            overflow()


def raising_errstates(source):
    """Line numbers of the np.errstate calls in `source` that set any
    keyword to "raise"."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "errstate"
            and any(isinstance(kw.value, ast.Constant) and kw.value.value == "raise" for kw in node.keywords)]


def test_raising_errstates_are_found():
    source = ('import numpy as np\nwith np.errstate(over="ignore"):\n    pass\n'
              'with np.errstate(under="ignore", divide="raise"):\n    pass\n')
    assert raising_errstates(source) == [4]


def test_errors_py_sets_the_one_raising_error_state():
    assert len(raising_errstates((PACKAGE / "errors.py").read_text(encoding="utf-8"))) == 1


@pytest.mark.parametrize("path", MODULES, ids=[str(path.relative_to(PACKAGE)) for path in MODULES])
def test_no_other_module_sets_a_raising_error_state(path):
    """Every other module runs its computation under errors.numerical."""
    assert raising_errstates(path.read_text(encoding="utf-8")) == [], path
