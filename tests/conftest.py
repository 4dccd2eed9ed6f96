from dataclasses import replace
from fractions import Fraction

import pytest

from netbargain import exactlp


@pytest.fixture
def tampered_duals(monkeypatch):
    """Every `exactlp.solve` returns its answer with the first dual moved by 1/7."""
    solve = exactlp.solve

    def tampered(lp):
        s = solve(lp)
        return replace(s, duals=(s.duals[0] + Fraction(1, 7),) + s.duals[1:])

    monkeypatch.setattr(exactlp, "solve", tampered)
