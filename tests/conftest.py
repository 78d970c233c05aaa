import contextlib
import sys

import pytest

FIG_SRC = "x := cons(3, 4); y := [x]; i := 10; [i] := 7; z := y + 1"
FIG_RESIDUAL = "x := cons(3, 0); y := [x]; i := 10; skip; skip"


@pytest.fixture
def fig_src():
    return FIG_SRC


@pytest.fixture
def fig_residual():
    return FIG_RESIDUAL


@contextlib.contextmanager
def _default_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture(scope="session")
def default_digit_limit():
    """A context manager that sets Python's default limit on the digits
    int() and json read, for a test that assumes it whatever the process
    was started with, and restores the process's own limit after."""
    return _default_digit_limit
