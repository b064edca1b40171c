"""Shared fixtures: small algebras reused across the test modules, and a
product counter."""

import sys

import pytest

import stargraded as sg
from stargraded import core
from stargraded.checks import parse_ut_spec


@pytest.fixture(scope="session")
def m2():
    """Full 2x2 matrix algebra, transpose star, even part on the diagonal."""
    return sg.m_hl_transpose(1, 1)


@pytest.fixture(scope="session")
def ground():
    """The ground field as a one dimensional algebra."""
    return sg.m_hl_transpose(1, 0)


@pytest.fixture(scope="session")
def ut2():
    """Two copies of the 2x2 block algebra glued along a triangular radical."""
    return sg.ut_star(parse_ut_spec("m_hl_transpose:1,1+m_hl_transpose:1,1", ""))


@pytest.fixture(scope="session")
def small_ut():
    """Two ground field blocks with a two dimensional radical."""
    return sg.ut_star(parse_ut_spec("m_hl_transpose:1,0+m_hl_transpose:1,0", ""))


@pytest.fixture
def sparse_mul_calls(monkeypatch):
    """A one-item list counting the sparse_mul calls made from any stargraded module."""
    original = core.sparse_mul
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("stargraded") and getattr(module, "sparse_mul", None) is original:
            monkeypatch.setattr(module, "sparse_mul", counted)
    return calls
