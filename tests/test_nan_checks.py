"""Every invariant check fails closed: a NaN deviation raises the check's own
exception instead of comparing false against the tolerance and passing."""

import numpy as np
import pytest

import qge
from qge import (
    BondOperator,
    NumericalError,
    StochasticityError,
    ValidationError,
    VertexScattering,
    build_assembly,
    classical_map,
    draw_lengths,
    eigenbasis,
    equi_transmitting_sigma,
    g2_contraction,
    lemma_a_sides,
    m_tilde,
    parity_observable,
    reduced_consistency,
    trace_correlator,
    z_closed_form,
    z_sequence,
)
import qge.evolution as evolution_module
from qge.evolution import MetricGraph

from conftest import k5


def _nan_sigma(d: int = 4) -> VertexScattering:
    """A vertex matrix of NaNs that skips VertexScattering's own check."""
    sig = object.__new__(VertexScattering)
    object.__setattr__(sig, "kind", "nan")
    object.__setattr__(sig, "entries", np.full((d, d), np.nan + 0j))
    return sig


def _nan_assembly():
    g = k5()
    mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=3))
    entries = np.full((g.n, g.d, g.d), np.nan + 0j)
    return g, mg, BondOperator(g.bond_index, entries)


def _walk_setup():
    g = k5()
    return g, classical_map(build_assembly(g, equi_transmitting_sigma(4)))


def _vertex_scattering(monkeypatch):
    VertexScattering(entries=np.full((4, 4), np.nan + 0j))


def _build_assembly(monkeypatch):
    build_assembly(k5(), _nan_sigma())


def _eigenbasis(monkeypatch):
    eigenbasis(np.full((3, 3), np.nan + 0j))


def _eigenbasis_operator(monkeypatch):
    eigenbasis(_nan_assembly()[2])


def _eigenbasis_residual_gate(monkeypatch):
    # past the input check, the residual gate alone must reject u
    monkeypatch.setattr(evolution_module, "unitarity_deviation", lambda u: 0.0)
    eigenbasis(np.full((3, 3), np.nan + 0j))


def _trace_correlator(monkeypatch):
    g, mg, a = _nan_assembly()
    trace_correlator(a, mg, parity_observable(g.bond_index), 1, 1.3)


def _m_tilde(monkeypatch):
    _, mg, a = _nan_assembly()
    m_tilde(a, mg, 1, 10.0, 2)


def _lemma_a_residue(monkeypatch):
    a_mat = np.diag([np.nan, 1.0, 2.0, 3.0])
    lemma_a_sides(np.eye(4, dtype=complex), a_mat, 2)


def _lemma_a_inequality(monkeypatch):
    def nan_basis(u):
        n = u.shape[0]
        return np.zeros(n), np.full((n, n), np.nan + 0j)

    monkeypatch.setattr(evolution_module, "eigenbasis", nan_basis)
    lemma_a_sides(np.eye(4, dtype=complex), np.eye(4), 2)


def _classical_map(monkeypatch):
    classical_map(_nan_assembly()[2])


def _reduced_consistency(monkeypatch):
    g, m = _walk_setup()
    reduced_consistency(g, m, np.full(2 * g.B, np.nan), 1)


def _g2_contraction(monkeypatch):
    g, m = _walk_setup()
    g2_contraction(m, np.full(2 * g.B, np.nan))


def _z_sequence(monkeypatch):
    monkeypatch.setattr(qge.walk, "z_closed_form", lambda mu, d, T: np.full(T + 1, np.nan))
    z_sequence(1.0, 4, 5)


def _z_closed_form(monkeypatch):
    z_closed_form(np.nan, 4, 3)


@pytest.mark.parametrize(
    "call, exc",
    [
        (_vertex_scattering, NumericalError),
        (_build_assembly, NumericalError),
        (_eigenbasis, ValidationError),
        (_eigenbasis_operator, ValidationError),
        (_eigenbasis_residual_gate, NumericalError),
        (_trace_correlator, NumericalError),
        (_m_tilde, NumericalError),
        (_lemma_a_residue, NumericalError),
        (_lemma_a_inequality, NumericalError),
        (_classical_map, StochasticityError),
        (_reduced_consistency, ValidationError),
        (_g2_contraction, ValidationError),
        (_z_sequence, NumericalError),
        (_z_closed_form, NumericalError),
    ],
    ids=lambda p: p.__name__.lstrip("_"),
)
def test_nan_deviation_raises(call, exc, monkeypatch):
    with np.errstate(all="ignore"), pytest.raises(exc):
        call(monkeypatch)
