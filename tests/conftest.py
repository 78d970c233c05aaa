import pytest

FIG_SRC = "x := cons(3, 4); y := [x]; i := 10; [i] := 7; z := y + 1"
FIG_RESIDUAL = "x := cons(3, 0); y := [x]; i := 10; skip; skip"


@pytest.fixture
def fig_src():
    return FIG_SRC


@pytest.fixture
def fig_residual():
    return FIG_RESIDUAL
