"""Hypothesis properties over generated graphs: invariance under relabelling
the vertices, the structure of S and M under every vertex rule, and the walk
bound on every ergodic graph it covers."""

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from qge import (
    Graph,
    MetricGraph,
    Observable,
    build_assembly,
    classical_map,
    decay_profile,
    draw_lengths,
    equi_transmitting_sigma,
    generate_random_regular,
    kirchhoff_sigma,
    spectral_report,
    variance_estimate,
)
from qge._checks import stochasticity_deviation, unitarity_deviation
from qge.evolution import S_UNITARITY_TOL
from qge.walk import STOCHASTICITY_TOL

from conftest import random_unitary

# beta and the variance estimate of a relabelled graph agree with the
# original's to this relative tolerance: the eigensolvers see permuted
# matrices, so their results differ in rounding only
RELABEL_TOL = 1e-9


@st.composite
def graphs(draw, degrees=(3, 4), max_n=16):
    d = draw(st.sampled_from(degrees))
    n = draw(st.integers(d + 1, max_n).filter(lambda n: n * d % 2 == 0))
    return generate_random_regular(n, d, draw(st.integers(0, 2**32)))


@st.composite
def relabellings(draw):
    """A graph and its copy with the vertices relabelled, the edges listed
    in another order and some of them reversed; `bonds[b']` is the bond of
    the original that the copy's bond b' is."""
    g = draw(graphs())
    perm = np.array(draw(st.permutations(range(g.n))))
    order = np.array(draw(st.permutations(range(g.B))))
    flip = np.array(draw(st.lists(st.booleans(), min_size=g.B, max_size=g.B)), dtype=bool)
    edges = perm[g.edges[order]]
    edges[flip] = edges[flip, ::-1]
    copy = Graph(n=g.n, d=g.d, edges=edges)
    bonds = np.concatenate([order + g.B * flip, order + g.B * ~flip])
    return g, copy, order, bonds


@settings(max_examples=25, deadline=None)
@given(case=relabellings(), seed=st.integers(0, 2**32))
def test_relabelling_keeps_beta_and_kirchhoff_variance(case, seed):
    # beta reads the graph alone, so it is invariant whatever the rule.
    # Kirchhoff's matrix is the same in every slot order, so relabelling
    # conjugates its S by a bond permutation; an equi-transmitting matrix
    # would see its slots reordered, which changes S
    g, copy, order, bonds = case
    assert spectral_report(copy).beta == pytest.approx(spectral_report(g).beta, rel=RELABEL_TOL)
    rng = np.random.default_rng(seed)
    lengths = draw_lengths(g.B, seed)
    f = rng.normal(size=2 * g.B)
    estimates = [
        variance_estimate(
            build_assembly(mg, kirchhoff_sigma(g.d)), mg, Observable(obs), 30.0, 6
        ).estimate
        for mg, obs in (
            (MetricGraph(graph=g, lengths=lengths), f),
            (MetricGraph(graph=copy, lengths=lengths[order]), f[bonds]),
        )
    ]
    assert estimates[1] == pytest.approx(estimates[0], rel=RELABEL_TOL)


@st.composite
def rules(draw):
    """A generated graph and one vertex matrix per vertex under the ET,
    Kirchhoff, mixed (ET and Kirchhoff alternating) or random-unitary rule."""
    kind = draw(st.sampled_from(["et", "kirchhoff", "mixed", "unitary"]))
    g = draw(graphs(degrees=(4,) if kind in ("et", "mixed") else (3, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "unitary":
        return g, [random_unitary(g.d, rng) for _ in range(g.n)]
    et, kh = equi_transmitting_sigma(g.d) if g.d == 4 else None, kirchhoff_sigma(g.d)
    pick = {"et": lambda v: et, "kirchhoff": lambda v: kh, "mixed": lambda v: (et, kh)[v % 2]}
    return g, [pick[kind](v) for v in range(g.n)]


@settings(max_examples=40, deadline=None)
@given(case=rules())
def test_s_unitary_without_backscattering_and_m_doubly_stochastic(case):
    g, sigmas = case
    s = build_assembly(g, sigmas)
    dense = s.dense()
    assert unitarity_deviation(dense) < S_UNITARITY_TOL
    # S[b, rev b] is the diagonal entry of b's slot at its head vertex
    zero_diagonal = np.array([not np.diagonal(sig.entries).any() for sig in sigmas])
    bi = g.bond_index
    back = dense[np.arange(2 * g.B), bi.rev]
    assert np.all(back[zero_diagonal[bi.heads]] == 0.0)
    assert s.no_backscatter == bool(zero_diagonal.all())
    assert stochasticity_deviation(classical_map(s).dense()) < STOCHASTICITY_TOL


@seed(26)
@settings(max_examples=40, deadline=None)
@given(g=graphs(degrees=(4,), max_n=40), rng_seed=st.integers(0, 2**32), in_span=st.booleans())
def test_no_decay_row_with_an_envelope_is_violated(g, rng_seed, in_span):
    # on a connected non-bipartite graph with beta < d - 2 the walk's gap is
    # beta and every row carries the general bound; f is a random traceless
    # observable, drawn in span{e_v} or on all bonds
    rep = spectral_report(g)
    assume(rep.ergodic and rep.beta < g.d - 2)
    m = classical_map(build_assembly(g, equi_transmitting_sigma(g.d)))
    rng = np.random.default_rng(rng_seed)
    raw = rng.normal(size=g.n)[g.bond_index.tails] if in_span else rng.normal(size=2 * g.B)
    rows = decay_profile(m, Observable(raw - raw.mean()), 30, rep)
    assert all(r.bound_kind == "general" for r in rows)
    assert not any(r.violated for r in rows)
