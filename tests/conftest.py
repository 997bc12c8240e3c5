import sys
from collections import Counter

import pytest

from skewcyclic.finite_field import Field
from skewcyclic.oracle import (
    _by_component,
    _case,
    _code_config,
    _dual_gray_commute,
    _evaluations,
    _placed,
)


def count_calls(monkeypatch, module, *names) -> Counter:
    """Count the calls of the functions ``names`` of ``module``, rebound on
    every package module that imported them by name."""
    calls = Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in names:
        original = getattr(module, name)
        counted = counting(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("skewcyclic") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def over_r(check, code, *args):
    """A component claim on a code over R, through ``_by_component``."""
    return _by_component(check, code, _code_config(code), {}, *args)


def placed(claim, check, code):
    """A Gray claim on a code over R: its placement witness, else the
    component claim ``check`` through ``_by_component``."""
    return _placed(claim, check, _case(code), {})


def dual_gray(code, dual=None):
    """``dual-gray-commute`` on a code over R, with the case of ``dual``
    (by default the code's dual) as the census case of its dual."""
    return _dual_gray_commute(_case(code), _case(code.dual() if dual is None else dual), {})


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
