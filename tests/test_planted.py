"""Planted defects: each case plants one fault in a kernel and asserts that
the check named for it fails, calling the check's own helper under
``pytest.raises``; the last asserts that the gate draw spans the range
where such faults show.

A check that stops catching the faults it was written for passes as before,
so a refactor of the kernels it guards could take its power away unseen.
"""

import numpy as np
import pytest

from clonebound import geometry
from clonebound.geometry import SWEEP_BLOCK
from test_geometry import exact_recheck


def test_exact_recheck_catches_a_raised_gate_bound(monkeypatch):
    bound = geometry._gate_bound
    monkeypatch.setattr(geometry, "_gate_bound", lambda eps: bound(eps) + 1e-12)
    with pytest.raises(AssertionError):
        exact_recheck(monkeypatch, "gate_approx")


@pytest.mark.parametrize("name", ["lemma1", "lemma2", "lemma3", "lemma4"])
def test_exact_recheck_catches_a_raised_angle(monkeypatch, name):
    # statespace._angles, under the name the inequalities look it up by.
    angles = geometry._angles
    monkeypatch.setattr(geometry, "_angles", lambda a, b: angles(a, b) + 1e-12)
    with pytest.raises(AssertionError):
        exact_recheck(monkeypatch, name)


def test_a_gate_block_spans_the_bounds_range():
    # One seeded dimension-8 block reaches eps = ||U - V|| near 0 and near
    # sqrt(2), where the bound reaches 1, and never beyond: a draw that
    # narrowed the range would hide a defect of the bound at either end.
    theta, _ = geometry._draw_gate_approx(SWEEP_BLOCK, 8, geometry._block_rng(1, 8, 0))
    eps = geometry._gate_epsilon(theta)
    assert eps.min() < 0.05 and eps.max() > 1.35
    assert eps.max() <= np.sqrt(2)
