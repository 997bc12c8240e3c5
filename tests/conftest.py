import pytest

from skewcyclic.finite_field import Field
from skewcyclic.oracle import _by_component, _code_config, _evaluations


def over_r(check, code, *args):
    """A component claim on a code over R, through ``_by_component``."""
    return _by_component(check, code, _code_config(code), {}, *args)


def evaluated(lane, field):
    """Oracle lane triples in its evaluation coordinates (a, a+b+c, a-b+c)."""
    t = field.tables()
    return tuple(_evaluations(s, t) for s in lane)


def stored(coeffs):
    """Production's coefficients over R as the (x1, x2, x3) indices they store."""
    return tuple((r.x1.idx, r.x2.idx, r.x3.idx) for r in coeffs)


@pytest.fixture(scope="session")
def f3():
    return Field(3, 1, [0, 1])


@pytest.fixture(scope="session")
def f9():
    return Field(3, 2, [1, 0, 1])


@pytest.fixture(scope="session")
def f25():
    return Field(5, 2, [2, 0, 1])


@pytest.fixture(scope="session")
def f27():
    return Field(3, 3, [1, 2, 0, 1])
