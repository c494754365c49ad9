"""Quadrature engines on known integrals, including endpoint singularities."""

import math

import numpy as np
import pytest

from fourierjacobi.errors import PrecisionError
from fourierjacobi.quadrature import (
    composite_gauss,
    composite_gauss_nodes,
    decay_cutoff,
    graded_edges,
    integrate,
    singular_halfline_nodes,
)


def test_composite_gauss_sine():
    got = composite_gauss(np.sin, 0.0, np.pi)
    assert got.real == pytest.approx(2.0, abs=1e-13)


def test_integrate_dispatch():
    got = integrate(lambda t: t * t, 0.0, 3.0)
    assert got.real == pytest.approx(9.0, abs=1e-8)


def test_composite_nodes_weights_sum():
    nodes, weights = composite_gauss_nodes(np.linspace(0, 2, 5), order=6)
    assert np.sum(weights) == pytest.approx(2.0)
    assert nodes.size == 4 * 6


def test_graded_edges_monotone():
    edges = graded_edges(0.5, 10)
    assert np.all(np.diff(edges) > 0)
    assert edges[-1] == pytest.approx(0.5)


def test_singular_nodes_sqrt_singularity():
    # int_0^oo t^(-1/2) e^(-t) dt = Gamma(1/2); the graded mesh drops the
    # sliver (0, 2^-41], whose contribution here is ~1.4e-6
    nodes, weights = singular_halfline_nodes(40.0)
    got = np.sum(weights * nodes**-0.5 * np.exp(-nodes))
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-5)


def test_singular_nodes_log_singularity():
    # int_0^1 log(1/t) dt = 1
    nodes, weights = singular_halfline_nodes(1.0)
    got = np.sum(weights * np.log(1.0 / nodes))
    assert got == pytest.approx(1.0, rel=1e-9)


def test_decay_cutoff_scales_with_rate():
    assert decay_cutoff(2.0) < decay_cutoff(0.5)


def test_decay_cutoff_rejects_nonpositive_rate():
    with pytest.raises(PrecisionError):
        decay_cutoff(0.0)


def test_decay_cutoff_cap_raises_when_it_binds():
    assert decay_cutoff(2.0, hi=240.0) == decay_cutoff(2.0)
    with pytest.raises(PrecisionError) as err:
        decay_cutoff(0.01, hi=240.0)
    assert err.value.achieved == pytest.approx(np.exp(-2.4))
