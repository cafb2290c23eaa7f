import concurrent.futures
import copy
import dataclasses
import functools
import re
import sys
import threading

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

import qge
from qge import (
    AssemblyError,
    BondIndex,
    BondOperator,
    Graph,
    MetricGraph,
    NumericalError,
    Observable,
    ParameterError,
    ValidationError,
    VertexScattering,
    WorkBudgetError,
    build_assembly,
    classical_map,
    constant_observable,
    draw_lengths,
    eigenbasis,
    equi_transmitting_sigma,
    fejer,
    fejer_kernel,
    generate_random_regular,
    kirchhoff_sigma,
    lemma_a_sides,
    m_tilde,
    parity_observable,
    skew_hadamard,
    trace_correlator,
    variance_estimate,
)

import qge.evolution as evolution_module
from qge import _runtime
from qge.evolution import _CAYLEY_SHIFTS, EIGENBASIS_TOL, FejerWeights, evolution
from qge.experiment import LENGTH_SEED_OFFSET
from qge.scattering import SkewHadamard

from conftest import assert_products_match_dense, cage46, k5, pair_square_oracle, petersen, random_unitary


@pytest.fixture(scope="module")
def k5_metric():
    g = k5()
    mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=11))
    a = build_assembly(mg, equi_transmitting_sigma(4))
    return g, mg, a


class TestAssembly:
    def test_et_rows(self, k5_metric):
        g, mg, a = k5_metric
        sq = np.abs(evolution(a, mg, 0.0)) ** 2
        assert np.allclose(sq.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((sq > 1e-15).sum(axis=1) == 3)

    def test_et_no_backscatter(self, k5_metric):
        g, mg, a = k5_metric
        bi = g.bond_index
        assert np.all(evolution(a, mg, 0.0)[np.arange(2 * g.B), bi.rev] == 0.0)
        assert a.no_backscatter

    def test_kirchhoff_reflection(self):
        g = k5()
        mg = MetricGraph(graph=g, lengths=np.ones(g.B))
        a = build_assembly(mg, kirchhoff_sigma(4))
        bi = g.bond_index
        refl = evolution(a, mg, 0.0)[np.arange(2 * g.B), bi.rev]
        assert np.allclose(refl, -0.5)
        assert not a.no_backscatter

    def test_unitarity(self, k5_metric):
        _, mg, a = k5_metric
        s = evolution(a, mg, 0.0)
        dev = np.max(np.abs(s @ s.conj().T - np.eye(s.shape[0])))
        assert dev < 1e-10

    def test_support_pattern(self, k5_metric):
        g, mg, a = k5_metric
        bi = g.bond_index
        s = evolution(a, mg, 0.0)
        for b in range(2 * g.B):
            for c in range(2 * g.B):
                if s[b, c] != 0:
                    assert bi.heads[b] == bi.tails[c]

    def test_with_phases_shares_block_facts(self, k5_metric):
        # variance_estimate re-phases S once per k; the block facts are
        # computed once, for S
        _, mg, a = k5_metric
        u = a.with_phases(np.exp(1j * 2.2 * mg.directed_lengths))
        assert u.gather is a.gather and u._gram is a._gram
        assert u.antisymmetric and u.no_backscatter

    def test_pair_scatter_computed_once_per_bond_index(self, monkeypatch):
        # the scatter pattern of the bond-reversal route is a fact of the
        # wiring: one per bond index, whatever the number of k-samples, and
        # none for a rule that never takes that route
        made = []
        real = BondIndex.__dict__["pair_scatter"].func
        counting = functools.cached_property(lambda bi: made.append(bi) or real(bi))
        counting.__set_name__(BondIndex, "pair_scatter")
        monkeypatch.setattr(BondIndex, "pair_scatter", counting)
        g = k5()
        mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=11))
        f = parity_observable(g.bond_index)
        variance_estimate(build_assembly(mg, kirchhoff_sigma(4)), mg, f, 40.0, 5)
        assert made == []
        variance_estimate(build_assembly(mg, equi_transmitting_sigma(4)), mg, f, 40.0, 5)
        assert len(made) == 1 and made[0] is g.bond_index

    def test_weights_formed_once_per_operator(self, k5_metric):
        _, mg, a = k5_metric
        u = _u(a, mg, 2.2)
        assert u._weights is u._weights and u._weights is not a._weights
        assert np.array_equal(u._weights, u.phases[:, None] * a.gather[1])
        assert np.array_equal(a._weights, a.gather[1])

    def test_with_phases_rejects_wrong_shape(self, k5_metric):
        _, mg, a = k5_metric
        for phases in (np.ones(3), np.ones((2, 20)), np.ones(21), 1.0):
            with pytest.raises(ValidationError, match="phases for 20 bonds"):
                a.with_phases(phases)
        assert a.with_phases(np.ones(20)).unitarity_deviation() == a.unitarity_deviation()

    def test_size_mismatch(self):
        with pytest.raises(AssemblyError):
            build_assembly(k5(), equi_transmitting_sigma(8))

    def test_per_vertex_rule(self):
        g = k5()
        a = build_assembly(g, [kirchhoff_sigma(4)] * 5)
        assert np.array_equal(a.blocks, np.stack([kirchhoff_sigma(4).entries] * 5))

    def test_rule_length_mismatch(self):
        with pytest.raises(AssemblyError):
            build_assembly(k5(), [kirchhoff_sigma(4)] * 4)


def oracle_s(g, sigmas) -> np.ndarray:
    """S straight from the documented convention: bonds are the edges then
    their reversals, a vertex's incident edges take slots in sorted-neighbour
    order, and S[b, c] = sigma_v[slot_out(c), slot_in(b)] where b enters and
    c leaves v."""
    bonds = list(g.edges) + [(v, u) for u, v in g.edges]
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    nbrs = [sorted(x) for x in nbrs]
    leaving = [[] for _ in range(g.n)]
    for c, (u, _) in enumerate(bonds):
        leaving[u].append(c)
    s = np.zeros((len(bonds), len(bonds)), dtype=np.complex128)
    for b, (x, v) in enumerate(bonds):
        slot_in = nbrs[v].index(x)
        for c in leaving[v]:
            slot_out = nbrs[v].index(bonds[c][1])
            s[b, c] = sigmas[v].entries[slot_out, slot_in]
    return s


def _wiring_cases():
    """(graph, rule) pairs: a shared vertex matrix or one per vertex."""
    et, kh = equi_transmitting_sigma(4), kirchhoff_sigma(4)
    cases = [
        pytest.param(k5(), et, id="k5-et"),
        pytest.param(k5(), kh, id="k5-kirchhoff"),
        pytest.param(petersen(), kirchhoff_sigma(3), id="petersen-kirchhoff"),
        pytest.param(cage46(), et, id="cage46-et"),
        pytest.param(cage46(), kh, id="cage46-kirchhoff"),
    ]
    for n, seed in ((10, 1), (20, 2), (40, 3), (80, 4)):
        g = generate_random_regular(n, 4, seed=seed)
        cases.append(pytest.param(g, et, id=f"random{n}-et"))
        cases.append(pytest.param(g, kh, id=f"random{n}-kirchhoff"))
    g = generate_random_regular(30, 4, seed=5)
    cases.append(pytest.param(g, [(et, kh)[v % 2] for v in range(g.n)], id="random30-mixed"))
    g = generate_random_regular(24, 3, seed=6)
    cases.append(
        pytest.param(g, [random_unitary(3, np.random.default_rng(v)) for v in range(g.n)], id="random24-unitary")
    )
    return cases


WIRING_CASES = _wiring_cases()


def _per_vertex(g, rule):
    return [rule] * g.n if isinstance(rule, VertexScattering) else rule


class TestAssemblyWiring:
    @pytest.mark.parametrize("g,rule", WIRING_CASES)
    def test_matches_oracle(self, g, rule):
        mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=g.n))
        a = build_assembly(mg, rule)
        oracle = oracle_s(g, _per_vertex(g, rule))
        for k in (0.0, 1.3):
            phases = np.exp(1j * k * mg.directed_lengths)
            assert np.array_equal(evolution(a, mg, k), phases[:, None] * oracle)

    @pytest.mark.parametrize("g,rule", WIRING_CASES)
    def test_classical_map_bitwise(self, g, rule):
        m = classical_map(build_assembly(g, rule))
        assert np.array_equal(m.dense(), np.abs(oracle_s(g, _per_vertex(g, rule))) ** 2)

    @pytest.mark.parametrize("g,rule", WIRING_CASES)
    def test_no_backscatter_reads_diagonals(self, g, rule):
        s = oracle_s(g, _per_vertex(g, rule))
        dense = bool(np.all(s[np.arange(2 * g.B), g.bond_index.rev] == 0.0))
        assert build_assembly(g, rule).no_backscatter == dense

    @pytest.mark.parametrize("g,rule", WIRING_CASES)
    def test_structural_deviation_matches_dense(self, g, rule):
        s = build_assembly(g, rule)
        phases = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=g.n)).directed_lengths
        for o in (s, s.with_phases(np.exp(1.3j * phases)), s.with_phases(np.full(2 * g.B, 1.5))):
            u = o.dense()
            dense = float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))
            assert abs(o.unitarity_deviation() - dense) <= 1e-14

    @pytest.mark.parametrize("g,rule", WIRING_CASES)
    def test_matvec_matches_dense(self, g, rule):
        assert_products_match_dense(g, rule)

    def test_non_unitary_sigma_raises(self):
        bad = object.__new__(VertexScattering)  # bypasses the vertex-level check
        object.__setattr__(bad, "entries", 1.001 * equi_transmitting_sigma(4).entries)
        rule = [equi_transmitting_sigma(4)] * 4 + [bad]
        with pytest.raises(NumericalError):
            build_assembly(k5(), rule)

    def test_wiring_comes_from_the_graph_alone(self):
        # the graph is the one constructor argument: no wiring array can be
        # set, replaced or written, so no bond is wired twice
        g = k5()
        bi = g.bond_index
        assert [f.name for f in dataclasses.fields(bi) if f.init] == []
        for field in ("out_bonds", "rev", "tails", "heads"):
            with pytest.raises(ValueError):
                dataclasses.replace(bi, **{field: getattr(bi, field).copy()})
            with pytest.raises(ValueError):
                dataclasses.replace(bi, graph=g, **{field: getattr(bi, field).copy()})
        fresh = BondIndex(g)
        assert fresh is not bi and "graph" not in vars(fresh)
        for field in ("out_bonds", "rev", "tails", "heads"):
            assert np.array_equal(getattr(fresh, field), getattr(bi, field))
            assert not getattr(fresh, field).flags.writeable

    @pytest.mark.parametrize("shape", [(3, 3, 3), (5, 4, 3), (5, 4, 4, 1)], ids=str)
    def test_blocks_of_another_shape_raise(self, shape):
        with pytest.raises(ValidationError, match=r"blocks must have shape \(5, 4, 4\), got"):
            BondOperator(k5().bond_index, np.zeros(shape))


class TestEvolution:
    def test_k0_is_s(self, k5_metric):
        g, mg, a = k5_metric
        s = oracle_s(g, [equi_transmitting_sigma(4)] * g.n)
        assert np.array_equal(evolution(a, mg, 0.0), s)

    def test_equal_length_periodicity(self):
        g = k5()
        mg = MetricGraph(graph=g, lengths=np.full(g.B, 1.5))
        a = build_assembly(mg, equi_transmitting_sigma(4))
        u1 = evolution(a, mg, 0.8)
        u2 = evolution(a, mg, 0.8 + 2 * np.pi / 1.5)
        assert np.max(np.abs(u1 - u2)) < 1e-12

    def test_random_k_unitarity(self, k5_metric):
        g, mg, a = k5_metric
        rng = np.random.default_rng(0)
        n = 2 * g.B
        for k in rng.uniform(0, 100, size=25):
            u = evolution(a, mg, k)
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-10

    def test_package_attribute_is_the_module(self):
        # the package does not shadow its submodule with the function
        assert qge.evolution is evolution_module
        assert qge.evolution.variance_estimate is variance_estimate
        assert qge.evolution.evolution is evolution


class TestEigenbasis:
    def test_identity(self):
        theta, q = eigenbasis(np.eye(6, dtype=complex))
        assert np.allclose(theta, 0.0)
        assert np.allclose(q.conj().T @ q, np.eye(6), atol=1e-12)

    def test_diag_i_minus_i(self):
        theta, _ = eigenbasis(np.diag([1j, -1j]))
        assert sorted(np.round(theta, 12)) == [0.25, 0.75]

    def test_reconstruction(self, k5_metric):
        _, mg, a = k5_metric
        u = evolution(a, mg, 17.3)
        theta, q = eigenbasis(u)
        lam = np.exp(2j * np.pi * theta)
        assert np.max(np.abs(u - (q * lam[None, :]) @ q.conj().T)) < 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            eigenbasis(2.0 * np.eye(4, dtype=complex))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: eigenbasis(np.ones((3, 4))),
            lambda: eigenbasis(np.eye(3)[None]),
            lambda: eigenbasis(np.zeros((0, 0))),
            lambda: lemma_a_sides(np.eye(4), np.eye(3), 3),
        ],
        ids=["not-square", "three-dim", "empty", "lemma-a-sizes"],
    )
    def test_rejects_malformed(self, call):
        # the shape is checked before unitarity, and named in the message
        with pytest.raises(ValidationError, match="shape"):
            call()

    def test_residual_gate_backs_the_input_check(self, monkeypatch):
        # with the unitarity check passed, the residual gate alone rejects u
        monkeypatch.setattr(evolution_module, "unitarity_deviation", lambda u: 0.0)
        with pytest.raises(NumericalError):
            eigenbasis(2.0 * np.eye(4, dtype=complex))

    def test_rejects_non_unitary_operators(self, k5_metric):
        # neither the walk M nor S with phases of modulus 2 is unitary
        _, mg, a = k5_metric
        phases = np.exp(1j * 2.2 * mg.directed_lengths)
        for u in (classical_map(a), a.with_phases(2 * phases)):
            with pytest.raises(ValidationError):
                eigenbasis(u)

    def test_phase_just_below_zero_is_zero(self):
        # (-1e-16) % 1.0 rounds to 1.0, outside [0, 1)
        theta, _ = eigenbasis(np.diag([np.exp(-1e-16j), 1j]))
        assert np.all((theta >= 0.0) & (theta < 1.0))
        assert theta[0] == 0.0
        assert theta[1] == pytest.approx(0.25, abs=1e-12)


def schur_eigenbasis(u):
    """Reference route: the complex Schur form of a unitary matrix is
    diagonal to rounding, and its Schur vectors are an eigenbasis."""
    t, q = scipy.linalg.schur(u, output="complex")
    return (np.angle(np.diag(t)) / (2.0 * np.pi)) % 1.0, q


def phase_distance(theta, reference):
    """Largest difference of the sorted eigenphases, cut open on the circle
    in the middle of the widest gap of the reference phases."""
    ref = np.sort(reference)
    gaps = np.diff(np.append(ref, ref[0] + 1.0))
    cut = ref[np.argmax(gaps)] + 0.5 * np.max(gaps)
    return float(np.max(np.abs(np.sort((theta - cut) % 1.0) - np.sort((reference - cut) % 1.0))))


def max_residual(u, theta, q):
    return float(np.max(np.linalg.norm(u @ q - q * np.exp(2j * np.pi * theta), axis=0)))


class TestCayleyAgainstSchur:
    """The Cayley/zheevd eigenbasis against the Schur reference route."""

    @pytest.mark.parametrize("g,rule", WIRING_CASES)
    def test_phases_and_per_k_statistic(self, g, rule, monkeypatch):
        mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=g.n))
        a = build_assembly(mg, rule)
        f = parity_observable(g.bond_index)
        ks = np.random.default_rng(g.n).uniform(0.0, 200.0, size=3)
        for k in ks:
            u = evolution(a, mg, k)
            theta, q = eigenbasis(u)
            theta_ref, _ = schur_eigenbasis(u)
            assert phase_distance(theta, theta_ref) <= 1e-10
            assert np.max(np.abs(q.conj().T @ q - np.eye(len(q)))) < 1e-12
        # one midpoint sample on [0, 2k] is the per-k statistic at k
        values = [variance_estimate(a, mg, f, 2.0 * k, 1).estimate for k in ks]
        oracle_calls = []

        def oracle(u):
            oracle_calls.append(u)
            return schur_eigenbasis(u.dense())

        monkeypatch.setattr(evolution_module, "eigenbasis", oracle)
        reference = [variance_estimate(a, mg, f, 2.0 * k, 1).estimate for k in ks]
        assert len(oracle_calls) == len(ks)
        assert values == pytest.approx(reference, rel=1e-12)

    @staticmethod
    def _unitary_with_phases(n, eigenvalues, seed):
        q = unitary_group.rvs(n, random_state=np.random.default_rng(seed))
        lam = np.exp(2j * np.pi * np.random.default_rng(seed + 1).uniform(size=n))
        lam[: len(eigenvalues)] = eigenvalues
        return (q * lam) @ q.conj().T

    @staticmethod
    def _count_solves(monkeypatch):
        calls = []
        solve = np.linalg.solve

        def spy(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", spy)
        return calls

    def test_singular_first_shift_takes_retry(self, monkeypatch):
        # I + e^{i alpha_0} U is singular: U has the eigenvalue -e^{-i alpha_0}
        u = self._unitary_with_phases(16, [-np.exp(-1j * _CAYLEY_SHIFTS[0])], seed=3)
        calls = self._count_solves(monkeypatch)
        theta, q = eigenbasis(u)
        assert len(calls) == 2
        assert max_residual(u, theta, q) < EIGENBASIS_TOL
        assert phase_distance(theta, schur_eigenbasis(u)[0]) <= 1e-10

    def test_exact_zero_pivot_takes_retry(self, monkeypatch):
        # with the shift 0, I + U has an exactly zero pivot and LAPACK
        # reports the matrix singular instead of returning a solution
        monkeypatch.setattr(evolution_module, "_CAYLEY_SHIFTS", (0.0, _CAYLEY_SHIFTS[1]))
        u = np.diag([-1.0, 1j, -1j, 1.0]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.eye(4) + u, np.eye(4))
        calls = self._count_solves(monkeypatch)
        theta, q = eigenbasis(u)
        assert len(calls) == 2
        assert max_residual(u, theta, q) < EIGENBASIS_TOL
        assert phase_distance(theta, np.array([0.5, 0.25, 0.75, 0.0])) <= 1e-12

    def test_singular_at_every_shift_raises(self, monkeypatch):
        u = self._unitary_with_phases(16, [-np.exp(-1j * a) for a in _CAYLEY_SHIFTS], seed=5)
        calls = self._count_solves(monkeypatch)
        with pytest.raises(NumericalError):
            eigenbasis(u)
        assert len(calls) == len(_CAYLEY_SHIFTS)


def _u(a, mg, k):
    """U(k) as the bond operator variance_estimate passes to eigenbasis."""
    return a.with_phases(np.exp(1j * k * mg.directed_lengths))


def _spy(monkeypatch, name):
    """Record the argument tuples of evolution_module.<name> and pass them on."""
    calls = []
    real = getattr(evolution_module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(evolution_module, name, spy)
    return calls


def _solve_dims(calls) -> list[int]:
    """The dimension of each spied _cayley_eigh input: 2B on the complex
    route, which takes the operator, and below 2B for a cluster block of
    the bond-reversal route."""
    return [u.bond_index.num_directed if isinstance(u, BondOperator) else len(u) for u, _ in calls]


def _planted_pole(g, k, gap=1e-6):
    """(MetricGraph, rotated ET rule) whose U(k) has an eigenvalue lambda with
    |1 + e^{i alpha_0} lambda^2| = gap: the vertex matrix e^{i beta} sigma_ET
    stays antisymmetric and turns every lambda^2 by e^{2 i beta}."""
    mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=g.n))
    theta, _ = schur_eigenbasis(evolution(build_assembly(mg, equi_transmitting_sigma(4)), mg, k))
    beta = 0.5 * (np.pi + gap - _CAYLEY_SHIFTS[0] - 4.0 * np.pi * theta[0])
    rotated = np.exp(1j * beta) * equi_transmitting_sigma(4).entries
    return mg, VertexScattering(entries=rotated)


def _pole_distance(u):
    theta, _ = schur_eigenbasis(u)
    return float(np.min(np.abs(1.0 + np.exp(1j * _CAYLEY_SHIFTS[0] + 4j * np.pi * theta))))


class TestReversalRoute:
    """The bond-reversal route of eigenbasis and its selection."""

    def test_odd_cluster_fails_the_attempt(self, k5_metric, monkeypatch):
        # every eigenvalue of M^2 is double, so a cluster of one means a u
        # without the bond-reversal symmetry: the attempt fails for the
        # next one to run
        def singles(operands):
            n = len(operands[0])
            return np.linspace(-1.0, 1.0, n), np.eye(n)

        _, mg, a = k5_metric
        monkeypatch.setattr(evolution_module, "_cayley", singles)
        with pytest.raises(np.linalg.LinAlgError, match=r"odd cluster of M\^2 eigenphases, sizes \[1\]"):
            evolution_module._reversal_attempt(_u(a, mg, 2.2), _CAYLEY_SHIFTS[0])

    @pytest.mark.parametrize("g,rule", WIRING_CASES)
    def test_antisymmetric_reads_every_vertex(self, g, rule):
        # only the equi-transmitting (H - I)/sqrt(d-1) is antisymmetric here;
        # the mixed rule has Kirchhoff vertices
        et = equi_transmitting_sigma(4).entries
        expected = all(np.array_equal(sig.entries, et) for sig in _per_vertex(g, rule))
        assert build_assembly(g, rule).antisymmetric == expected

    def test_pole_takes_second_shift(self, monkeypatch):
        g, k = generate_random_regular(20, 4, seed=2), 3.3
        mg, rule = _planted_pole(g, k)
        op = _u(build_assembly(mg, rule), mg, k)
        u = op.dense()
        assert _pole_distance(u) == pytest.approx(1e-6, rel=1e-3)
        attempts = _spy(monkeypatch, "_reversal_attempt")
        solves = _spy(monkeypatch, "_cayley_eigh")
        theta, q = eigenbasis(op)
        assert [alpha for _, alpha in attempts] == list(_CAYLEY_SHIFTS)
        assert all(dim < 2 * g.B for dim in _solve_dims(solves))  # no complex route
        assert max_residual(u, theta, q) < 1e-10
        assert phase_distance(theta, schur_eigenbasis(u)[0]) <= 1e-10
        assert np.max(np.abs(q.conj().T @ q - np.eye(len(q)))) < 1e-12

    @pytest.mark.parametrize("make", [k5, cage46], ids=["k5", "cage46"])
    def test_equal_lengths_clusters(self, make, monkeypatch):
        g = make()
        mg = MetricGraph(graph=g, lengths=np.ones(g.B))
        a = build_assembly(mg, equi_transmitting_sigma(4))
        blocks = _spy(monkeypatch, "_cayley_eigh")
        for k in (0.3, 1.1, 2.0):
            u = evolution(a, mg, k)
            theta, q = eigenbasis(_u(a, mg, k))
            assert phase_distance(theta, schur_eigenbasis(u)[0]) <= 1e-10
            assert np.max(np.abs(q.conj().T @ q - np.eye(len(q)))) < 1e-12
        # every complex solve is a cluster block, none the complex route
        assert blocks and all(2 < dim < 2 * g.B for dim in _solve_dims(blocks))

    @pytest.mark.parametrize(
        "rule",
        [
            kirchhoff_sigma(4),
            # zero diagonal but sigma^T != -sigma
            VertexScattering(
                entries=np.diag(np.exp(1j * np.arange(4.0)))
                @ equi_transmitting_sigma(4).entries
                @ np.diag(np.exp(-1j * np.arange(4.0))),
            ),
        ],
        ids=["kirchhoff", "phased-et"],
    )
    def test_structure_without_symmetry_is_general_route(self, rule, monkeypatch):
        g, k = generate_random_regular(20, 4, seed=2), 3.3
        mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=3))
        a = build_assembly(mg, rule)
        assert not a.antisymmetric
        theta_ref, q_ref = eigenbasis(evolution(a, mg, k))
        reduced = _spy(monkeypatch, "_reversal_attempt")
        dense = _spy(monkeypatch, "_cayley_eigh")
        theta, q = eigenbasis(_u(a, mg, k))
        assert reduced == [] and _solve_dims(dense) == [2 * g.B]
        # the same eigenvectors; each phase is read from U q, formed by the
        # gather here and by a dense product for the reference
        assert np.array_equal(q, q_ref)
        assert phase_distance(theta, theta_ref) <= 1e-14

    def test_every_route_failing_raises(self, monkeypatch):
        # the reversal route fails at the pole at both shifts, the dense
        # route at its gate; the input check is passed so that the gate
        # sees tolerance 0
        g = generate_random_regular(20, 4, seed=2)
        mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=3))
        u = _u(build_assembly(mg, equi_transmitting_sigma(4)), mg, 3.3)
        monkeypatch.setattr(BondOperator, "unitarity_deviation", lambda self: -1.0)
        monkeypatch.setattr(evolution_module, "_POLE_BOUND", 0.0)
        monkeypatch.setattr(evolution_module, "EIGENBASIS_TOL", 0.0)
        # one message names every attempt, in the order they ran
        expected = [f"bond reversal at alpha={a}: Cayley pole" for a in _CAYLEY_SHIFTS]
        expected += [f"complex at alpha={a}: residual" for a in _CAYLEY_SHIFTS]
        with pytest.raises(NumericalError, match=".*; ".join(map(re.escape, expected))):
            eigenbasis(u)


_POLE_GAPS = st.floats(min_value=-12.0, max_value=-2.0).map(lambda x: 10.0**x)


class TestCayleyEdge:
    """An eigenvalue planted at distance delta, log-uniform in
    [1e-12, 1e-2], from the pole -e^{-i alpha_0} of the first Cayley shift:
    eigenbasis returns a basis under its gate, with the phases of the Schur
    route.  Near the pole the Cayley eigenvalues lose accuracy (about
    8e-17 / delta in theta); the phases, read from U q, do not."""

    @staticmethod
    def _assert_accurate(u, op, theta, q):
        # the residual by the product eigenbasis gated on, the phases
        # against the Schur route on the dense u
        residual = np.max(np.linalg.norm(op @ q - q * np.exp(2j * np.pi * theta), axis=0))
        assert residual < EIGENBASIS_TOL
        assert phase_distance(theta, schur_eigenbasis(u)[0]) <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(delta=_POLE_GAPS, seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_dense_unitary(self, delta, seed):
        pole = -np.exp(-1j * _CAYLEY_SHIFTS[0])
        u = TestCayleyAgainstSchur._unitary_with_phases(16, [pole * np.exp(1j * delta)], seed)
        theta, q = eigenbasis(u)
        self._assert_accurate(u, u, theta, q)

    @settings(max_examples=15, deadline=None)
    @given(delta=_POLE_GAPS, k=st.floats(min_value=0.5, max_value=50.0))
    def test_et_operator(self, delta, k):
        # _planted_pole turns an eigenvalue of M^2, the matrix the
        # bond-reversal route's Cayley solve sees, to distance delta
        mg, rule = _planted_pole(generate_random_regular(20, 4, seed=2), k, gap=delta)
        op = _u(build_assembly(mg, rule), mg, k)
        u = op.dense()
        assert _pole_distance(u) <= delta + 1e-13
        theta, q = eigenbasis(op)
        self._assert_accurate(u, op, theta, q)


class TestPairOperands:
    """The real Cayley operands I + P and Q of the bond-reversal route,
    scattered from the values of W^2, against the dense pair-basis square
    M^2 of the oracle: e^{i alpha} M^2 = P + i Q."""

    @pytest.mark.parametrize(
        "make",
        [
            k5,
            cage46,
            lambda: generate_random_regular(20, 4, seed=2),
            lambda: generate_random_regular(80, 4, seed=1),
            lambda: qge.Graph(n=9, d=8, edges=[(u, v) for u in range(9) for v in range(u + 1, 9)]),
        ],
        ids=["k5", "cage46", "n20", "n80", "k9"],
    )
    def test_scatter_matches_dense_square(self, make, monkeypatch):
        g = make()
        mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=g.n))
        a = build_assembly(mg, equi_transmitting_sigma(g.d))
        eye = np.eye(2 * g.B)
        for k in (0.0, 1.3, 7.9, 42.0):
            u = _u(a, mg, k)
            calls = _spy(monkeypatch, "_pair_operands")
            eigenbasis(u)
            w2, _, scatter = calls[0]
            assert scatter is g.bond_index.pair_scatter
            m2 = pair_square_oracle(u)
            for alpha in _CAYLEY_SHIFTS:
                v = np.exp(1j * alpha) * m2
                ip, q = evolution_module._pair_operands(w2, alpha, scatter)
                assert ip.flags.f_contiguous and q.flags.f_contiguous
                assert np.max(np.abs(ip - (eye + v.real))) <= 1e-15
                assert np.max(np.abs(q - v.imag)) <= 1e-15


def _count_case(kind):
    """(MetricGraph, S, samples, k_max) of one call-count scenario."""
    g20 = generate_random_regular(20, 4, seed=2)
    et = equi_transmitting_sigma(4)
    if kind == "second-shift":  # one sample at k = 3.3, planted at the Cayley pole
        mg, rule = _planted_pole(g20, 3.3)
        return mg, build_assembly(mg, rule), 1, 6.6
    if kind == "clusters":
        mg = MetricGraph(graph=k5(), lengths=np.ones(10))
        return mg, build_assembly(mg, et), 4, 40.0
    if kind == "unitary":
        g = generate_random_regular(24, 3, seed=6)
        rule = [random_unitary(3, np.random.default_rng(v)) for v in range(g.n)]
    else:
        g, rule = g20, kirchhoff_sigma(4) if kind == "kirchhoff" else et
    mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=g.n))
    return mg, build_assembly(mg, rule), 4, 40.0


class TestEigenbasisCallCount:
    """variance_estimate makes exactly one public eigenbasis call per
    k-sample whatever route serves it (the benchmark's traced pass counts
    them); the attempts, one per (route, shift) pair, and the cluster
    blocks stay in private helpers.  Only the complex route forms a dense
    U(k), once per attempt."""

    @pytest.mark.parametrize(
        "kind,patch,reduced,dense,solves",
        [
            ("et", {}, 4, 0, 4),
            ("kirchhoff", {}, 0, 4, 0),
            ("unitary", {}, 0, 4, 0),
            ("second-shift", {}, 2, 0, 2),
            ("clusters", {}, 4, 0, 4),
            ("fallback", {"_POLE_BOUND": 0.0}, 8, 4, 8),
        ],
    )
    def test_one_call_per_sample(self, kind, patch, reduced, dense, solves, monkeypatch):
        mg, a, samples, k_max = _count_case("et" if kind == "fallback" else kind)
        for name, value in patch.items():
            monkeypatch.setattr(evolution_module, name, value)
        calls = {
            name: _spy(monkeypatch, name)
            for name in ("eigenbasis", "_reversal_attempt", "_cayley", "_cayley_eigh")
        }
        scatters = []
        real_dense = BondOperator.dense
        monkeypatch.setattr(BondOperator, "dense", lambda o: scatters.append(o) or real_dense(o))
        est = variance_estimate(a, mg, parity_observable(mg.graph.bond_index), k_max, samples)
        assert np.isfinite(est.estimate)
        assert len(calls["eigenbasis"]) == samples
        assert len(calls["_reversal_attempt"]) == reduced
        # the complex solves are the complex route's at 2B and the cluster
        # blocks below it
        dims = _solve_dims(calls["_cayley_eigh"])
        assert dims.count(2 * mg.graph.B) == dense
        assert len(scatters) == dense
        # the real solves are the bond-reversal route's; every solve, real
        # or complex, goes through the one kernel
        assert sum(a.dtype == np.float64 for (a, _), in calls["_cayley"]) == solves
        assert len(calls["_cayley"]) == solves + len(dims)
        assert any(dim < 2 * mg.graph.B for dim in dims) == (kind == "clusters")


    def test_complex_route_traffic(self, monkeypatch):
        # criterion 13b's n = 20, seed 2 row: two of its 200 k-samples meet
        # the pole at the first shift and one of them at the second as
        # well, so one takes the complex route; over all of 13b's 4,000
        # k-samples seven do
        g = generate_random_regular(20, 4, seed=2)
        mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=2 + LENGTH_SEED_OFFSET))
        a = build_assembly(mg, equi_transmitting_sigma(4))
        reduced = _spy(monkeypatch, "_reversal_attempt")
        solves = _spy(monkeypatch, "_cayley_eigh")
        variance_estimate(a, mg, parity_observable(g.bond_index), 200.0, 200)
        assert len(reduced) > 200  # the second shift ran
        assert _solve_dims(solves).count(2 * g.B) <= 0.02 * 200


class TestVarianceEstimate:
    def test_constant_observable_zero(self, k5_metric):
        g, mg, a = k5_metric
        f = constant_observable(g.bond_index, 3.0 - 1.0j)
        est = variance_estimate(a, mg, f, 40.0, 40)
        assert est.estimate < 1e-26

    def test_scaling(self, k5_metric):
        g, mg, a = k5_metric
        f = parity_observable(g.bond_index)
        e1 = variance_estimate(a, mg, f, 40.0, 40)
        e2 = variance_estimate(a, mg, Observable(2.5 * f.f), 40.0, 40)
        assert e2.estimate == pytest.approx(2.5**2 * e1.estimate, rel=1e-12)

    def test_sample_count_consistency(self, k5_metric):
        g, mg, a = k5_metric
        f = parity_observable(g.bond_index)
        e1 = variance_estimate(a, mg, f, 200.0, 200)
        e2 = variance_estimate(a, mg, f, 200.0, 400)
        tol = 3 * np.hypot(e1.stderr, e2.stderr)
        assert abs(e1.estimate - e2.estimate) <= tol

    def test_json_contract(self, k5_metric):
        g, mg, a = k5_metric
        est = variance_estimate(a, mg, parity_observable(g.bond_index), 10.0, 5)
        assert set(est.to_json_dict()) == {"B", "K", "samples", "estimate", "stderr"}

    def test_single_sample_stderr_undefined(self, k5_metric):
        g, mg, a = k5_metric
        est = variance_estimate(a, mg, parity_observable(g.bond_index), 10.0, 1)
        assert np.isnan(est.stderr)
        assert est.to_json_dict()["stderr"] is None

    def test_parameter_errors(self, k5_metric):
        g, mg, a = k5_metric
        f = parity_observable(g.bond_index)
        with pytest.raises(ParameterError):
            variance_estimate(a, mg, f, 10.0, 0)
        with pytest.raises(ParameterError):
            variance_estimate(a, mg, f, -1.0, 10)

    @pytest.mark.parametrize("k_max", [0.0, -1.0, np.inf, np.nan])
    def test_window_must_be_finite_and_positive(self, k5_metric, k_max):
        g, mg, a = k5_metric
        with pytest.raises(ParameterError):
            variance_estimate(a, mg, parity_observable(g.bond_index), k_max, 5)
        with pytest.raises(ParameterError):
            m_tilde(a, mg, 2, k_max, 5)

    def test_checks_run_in_order_before_any_evolution(self, k5_metric, monkeypatch):
        # samples, then the window, then the observable's length; no U(k) is formed
        g, mg, a = k5_metric

        def formed(self, phases):
            raise AssertionError("U(k) formed before the argument checks")

        monkeypatch.setattr(BondOperator, "with_phases", formed)
        short = Observable(np.ones(3))
        with pytest.raises(ParameterError, match="samples"):
            variance_estimate(a, mg, short, np.nan, 0)
        with pytest.raises(ParameterError, match="k window"):
            variance_estimate(a, mg, short, np.nan, 5)
        with pytest.raises(ValidationError, match="observable has dim 3"):
            variance_estimate(a, mg, short, 10.0, 5)
        with pytest.raises(ParameterError, match="samples"):
            m_tilde(a, mg, 2, np.nan, 0)
        with pytest.raises(ParameterError, match="k window"):
            m_tilde(a, mg, 2, np.nan, 5)


class TestOperandMemory:
    """variance_estimate refuses k-samples whose operands, at least two
    2B x 2B float64 arrays each, cannot fit in physical memory."""

    def test_refused_before_any_eigenbasis(self, k5_metric, monkeypatch):
        g, mg, a = k5_metric
        calls = []
        monkeypatch.setattr(evolution_module, "eigenbasis", lambda u: calls.append(u))
        monkeypatch.setattr(_runtime, "physical_memory", lambda: 1024)
        with pytest.raises(WorkBudgetError, match="at 2B = 20 hold at least .* 1024 bytes"):
            variance_estimate(a, mg, parity_observable(g.bond_index), 10.0, 5)
        assert calls == []

    @pytest.mark.parametrize("memory, refused", [(12_799, True), (12_800, False), (None, False)])
    def test_lower_bound(self, k5_metric, monkeypatch, memory, refused):
        # two workers at 2B = 20 hold at least 2 * 2 * 20^2 * 8 = 12,800 bytes;
        # where the memory size is not available nothing is checked
        g, mg, a = k5_metric
        monkeypatch.setattr(_runtime, "pool_workers", lambda items: 2)
        monkeypatch.setattr(_runtime, "physical_memory", lambda: memory)
        f = parity_observable(g.bond_index)
        if refused:
            with pytest.raises(WorkBudgetError, match="2 k-samples in flight at 2B = 20 hold at least 12800 bytes"):
                variance_estimate(a, mg, f, 10.0, 5)
        else:
            assert variance_estimate(a, mg, f, 10.0, 5).samples == 5

    def test_physical_memory(self, monkeypatch):
        assert _runtime.physical_memory() is None or _runtime.physical_memory() > 2**20

        def unavailable(name):
            raise ValueError(f"unrecognized configuration name {name}")

        monkeypatch.setattr(_runtime.os, "sysconf", unavailable)
        assert _runtime.physical_memory() is None


def _row_inputs(n=20, seed=3):
    g = generate_random_regular(n, 4, seed=seed)
    mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=seed + LENGTH_SEED_OFFSET))
    return mg, build_assembly(mg, equi_transmitting_sigma(4)), parity_observable(g.bond_index)


@pytest.fixture()
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def _blas_threads():
    blas = _runtime.openblas_threads()
    return blas[1]() if blas else None


class TestKSamplePool:
    """variance_estimate runs its k-samples through _runtime.thread_map."""

    K, SAMPLES = 60.0, 12

    def _spy_samples(self, monkeypatch, mg, fail):
        """eigenbasis, told the index of its k-sample, raising fail(i) where
        that is an exception; returns the indices seen and their threads."""
        ks = (np.arange(self.SAMPLES) + 0.5) * (self.K / self.SAMPLES)
        phases = [np.exp(1j * k * mg.directed_lengths) for k in ks]
        real, seen = evolution_module.eigenbasis, []

        def eigenbasis(u):
            i = next(i for i, p in enumerate(phases) if np.array_equal(u.phases, p))
            seen.append((i, threading.get_ident()))
            exc = fail(i)
            if exc is not None:
                raise exc
            return real(u)

        monkeypatch.setattr(evolution_module, "eigenbasis", eigenbasis)
        return seen

    @pytest.mark.usefixtures("fast_switching")
    @pytest.mark.parametrize("rule", [equi_transmitting_sigma, kirchhoff_sigma], ids=["et", "kirchhoff"])
    def test_estimate_bit_identical_at_any_width(self, monkeypatch, rule):
        mg, _, f = _row_inputs()
        a = build_assembly(mg, rule(4))
        runs = []
        for workers in (1, 2, 8):
            monkeypatch.setattr(_runtime, "pool_workers", lambda items: workers)
            est = variance_estimate(a, mg, f, self.K, self.SAMPLES)
            runs.append((est.estimate, est.stderr))
        assert runs[0] == runs[1] == runs[2]

    def test_column_blocks_change_no_bit(self, monkeypatch):
        # 2B = 80 is one block by default; blocks of 3 columns split every
        # residual and statistic into 27
        mg, a, f = _row_inputs()
        whole = variance_estimate(a, mg, f, self.K, self.SAMPLES)
        theta, q = eigenbasis(_u(a, mg, 7.3))
        monkeypatch.setattr(evolution_module, "_BLOCK_BYTES", 3 * 16 * 80)
        assert len(evolution_module._column_blocks(80)) == 27
        assert variance_estimate(a, mg, f, self.K, self.SAMPLES) == whole
        blocked = eigenbasis(_u(a, mg, 7.3))
        assert np.array_equal(blocked[0], theta) and np.array_equal(blocked[1], q)

    @pytest.mark.parametrize("n", [1, 2, 80, 161, 320, 1000])
    def test_column_blocks_cover_each_column_once(self, n):
        blocks = evolution_module._column_blocks(n)
        assert np.array_equal(np.concatenate([np.arange(n)[c] for c in blocks]), np.arange(n))
        assert all(16 * n * len(range(n)[c]) <= evolution_module._BLOCK_BYTES for c in blocks)
        # as few blocks as fit
        assert len(blocks) == (1 if n <= 161 else -(-n // (evolution_module._BLOCK_BYTES // (16 * n))))

    def test_lowest_failing_sample_raises(self, monkeypatch):
        # sample 5 fails at once while sample 3, taken earlier, is still
        # running; sample 3's error is raised, as in the serial loop, and
        # no sample after 5 is handed out
        monkeypatch.setattr(_runtime, "pool_workers", lambda items: 2)
        mg, a, f = _row_inputs()
        five_failed = threading.Event()

        def fail(i):
            if i == 3:
                assert five_failed.wait(timeout=10)
                return RuntimeError("sample 3 broke")
            if i == 5:
                five_failed.set()
                return RuntimeError("sample 5 broke")
            return None

        seen = self._spy_samples(monkeypatch, mg, fail)
        threads, blas = threading.active_count(), _blas_threads()
        with pytest.raises(RuntimeError, match="sample 3 broke"):
            variance_estimate(a, mg, f, self.K, self.SAMPLES)
        assert sorted(i for i, _ in seen) == list(range(6))
        assert threading.active_count() == threads
        assert _blas_threads() == blas

    @pytest.mark.usefixtures("fast_switching")
    def test_shared_facts_built_once_on_the_calling_thread(self, monkeypatch):
        # cached_property takes no lock, so a fact the k-samples share (the
        # block facts that with_phases passes on, and every bond-index fact)
        # must be built before the pool starts, where no two workers race
        monkeypatch.setattr(_runtime, "pool_workers", lambda items: 2)
        builds = []
        for cls in (BondOperator, BondIndex):
            for name, prop in vars(cls).items():
                if isinstance(prop, functools.cached_property) and name != "_weights":

                    def spy(self, func=prop.func, name=name):
                        builds.append((name, id(self), threading.current_thread()))
                        return func(self)

                    wrapped = functools.cached_property(spy)
                    wrapped.__set_name__(cls, name)
                    monkeypatch.setattr(cls, name, wrapped)
        mg, a, f = _row_inputs()
        variance_estimate(a, mg, f, self.K, self.SAMPLES)
        names = [name for name, _, _ in builds]
        assert {"gather", "antisymmetric", "pair_scatter"} <= set(names)
        assert len({(name, owner) for name, owner, _ in builds}) == len(builds)
        assert {thread for _, _, thread in builds} == {threading.current_thread()}

    def test_calling_thread_only_waits(self, monkeypatch):
        monkeypatch.setattr(_runtime, "pool_workers", lambda items: 2)
        mg, a, f = _row_inputs()
        seen = self._spy_samples(monkeypatch, mg, lambda i: None)
        variance_estimate(a, mg, f, self.K, self.SAMPLES)
        assert sorted(i for i, _ in seen) == list(range(self.SAMPLES))
        assert threading.get_ident() not in {t for _, t in seen}

    @pytest.mark.skipif(_runtime.openblas_threads() is None, reason="no OpenBLAS thread setter found")
    def test_samples_run_at_one_blas_thread(self, monkeypatch):
        set_threads, get_threads = _runtime.openblas_threads()
        mg, a, f = _row_inputs()
        counts = []
        self._spy_samples(monkeypatch, mg, lambda i: counts.append(get_threads()))
        old = get_threads()
        set_threads(3)
        try:
            variance_estimate(a, mg, f, self.K, self.SAMPLES)
            assert get_threads() == 3
        finally:
            set_threads(old)
        assert counts == [1] * self.SAMPLES


class TestThreadMap:
    def test_results_in_item_order(self, monkeypatch):
        monkeypatch.setattr(_runtime, "pool_workers", lambda items: 3)
        assert _runtime.thread_map(lambda x: x * x, range(10)) == [x * x for x in range(10)]

        def no_pool(*args, **kwargs):
            raise AssertionError("an executor was built")

        # no items, no executor
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        assert _runtime.thread_map(lambda x: x, []) == []
        assert _runtime.thread_map(lambda x: x, np.array([])) == []

    @pytest.mark.usefixtures("fast_switching")
    def test_lowest_failure_under_contention(self, monkeypatch):
        # eight workers on 600 items, switching threads every microsecond:
        # the map comes back whole and in order, and of three failing items
        # the lowest one's error is raised
        monkeypatch.setattr(_runtime, "pool_workers", lambda items: 8)
        assert _runtime.thread_map(lambda x: -x, range(600)) == [-x for x in range(600)]

        def fn(i):
            if i in (101, 250, 400):
                raise RuntimeError(f"item {i} broke")
            return i

        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="item 101 broke"):
            _runtime.thread_map(fn, range(600))
        assert threading.active_count() == threads

    def test_lowest_failing_item_raises_while_a_higher_one_runs(self, monkeypatch):
        # three workers, all started by items 0-2; item 5 raises, then item
        # 3, while item 4 runs until item 3's future holds its error: item
        # 3's error is raised and no item above 5 calls fn
        monkeypatch.setattr(_runtime, "pool_workers", lambda items: 3)
        barrier, five_failed, three_failed = threading.Barrier(3), threading.Event(), threading.Event()
        started = []
        set_exception = concurrent.futures.Future.set_exception

        def record(future, exc):
            set_exception(future, exc)
            if str(exc) == "item 3 broke":
                three_failed.set()

        monkeypatch.setattr(concurrent.futures.Future, "set_exception", record)

        def fn(i):
            started.append(i)
            if i < 3:
                barrier.wait(timeout=10)
            elif i == 3:
                assert five_failed.wait(timeout=10)
                raise RuntimeError("item 3 broke")
            elif i == 4:
                assert three_failed.wait(timeout=10)
            elif i == 5:
                five_failed.set()
                raise RuntimeError("item 5 broke")
            return i

        threads, blas = threading.active_count(), _blas_threads()
        with pytest.raises(RuntimeError, match="item 3 broke"):
            _runtime.thread_map(fn, range(12))
        assert sorted(started) == list(range(6))
        assert threading.active_count() == threads
        assert _blas_threads() == blas

    def test_keyboard_interrupt_runs_no_queued_item(self, monkeypatch):
        # the interrupt reaches the calling thread while it waits, with
        # items 0 and 1 running: they finish before the pool shuts down,
        # their workers take queued items for 50 ms, and none calls fn
        monkeypatch.setattr(_runtime, "pool_workers", lambda items: 2)
        barrier, released, started, done = threading.Barrier(2), threading.Event(), [], []
        shutdown = concurrent.futures.ThreadPoolExecutor.shutdown

        def interrupted_wait(futures, timeout=None, return_when=None):
            while len(started) < 2:
                threading.Event().wait(0.001)
            raise KeyboardInterrupt

        def release_then_shutdown(pool, *args, **kwargs):
            released.set()
            while len(done) < 2:
                threading.Event().wait(0.001)
            threading.Event().wait(0.05)
            shutdown(pool, *args, **kwargs)

        def fn(i):
            started.append(i)
            barrier.wait(timeout=10)
            assert released.wait(timeout=10)
            done.append(i)

        monkeypatch.setattr(concurrent.futures, "wait", interrupted_wait)
        monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "shutdown", release_then_shutdown)
        threads, blas = threading.active_count(), _blas_threads()
        with pytest.raises(KeyboardInterrupt):
            _runtime.thread_map(fn, range(20))
        assert sorted(started) == [0, 1]
        assert threading.active_count() == threads
        assert _blas_threads() == blas

    def test_interrupt_while_waiting_joins_every_thread(self, monkeypatch):
        # an exception in the calling thread (here a worker that would not
        # start) calls fn no more, joins the threads already started and
        # is raised
        monkeypatch.setattr(_runtime, "pool_workers", lambda items: 2)
        started, done = threading.Event(), []
        start = threading.Thread.start

        def start_once(thread):
            if started.is_set():
                raise RuntimeError("can't start new thread")
            started.set()
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_once)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            _runtime.thread_map(lambda i: done.append(i) or threading.Event().wait(0.002), range(50))
        assert threading.active_count() == threads
        assert done == sorted(done) and len(done) < 50


class TestTraceCorrelator:
    def test_wrong_length_observable_raises(self, k5_metric):
        _, mg, a = k5_metric
        f = Observable(np.ones(7))
        with pytest.raises(ValidationError, match="observable has dim 7, expected 20"):
            trace_correlator(a, mg, f, 2, 1.1)

    def test_t0(self, k5_metric):
        g, mg, a = k5_metric
        f = parity_observable(g.bond_index)
        val = trace_correlator(a, mg, f, 0, 2.2)
        assert val == pytest.approx(float(np.sum(np.abs(f.f) ** 2)), rel=1e-12)

    def test_constant(self, k5_metric):
        g, mg, a = k5_metric
        f = constant_observable(g.bond_index, 2.0)
        for t in (0, 1, 3):
            assert trace_correlator(a, mg, f, t, 1.1) == pytest.approx(
                4.0 * 2 * g.B, rel=1e-10
            )

    def test_matches_quadratic_form_on_same_grid(self, k5_metric):
        # Expanding the trace gives <f, avg|U^t|^2 f> exactly, k by k
        g, mg, a = k5_metric
        f = parity_observable(g.bond_index)
        t, k_max, samples = 3, 37.0, 50
        mt = m_tilde(a, mg, t, k_max, samples)
        ks = (np.arange(samples) + 0.5) * (k_max / samples)
        avg = np.mean([trace_correlator(a, mg, f, t, k) for k in ks])
        quad = float(np.real(np.conj(f.f) @ mt @ f.f))
        assert abs(avg - quad) < 1e-10 * max(1.0, abs(quad))


class TestMTilde:
    def test_t0_identity(self, k5_metric):
        _, mg, a = k5_metric
        assert np.array_equal(m_tilde(a, mg, 0, 10.0, 4), np.eye(a.bond_index.num_directed))

    def test_t1_equals_m(self, k5_metric):
        # single-step phases cancel in modulus, so no k dependence at t=1
        _, mg, a = k5_metric
        m = classical_map(a).dense()
        assert np.max(np.abs(m_tilde(a, mg, 1, 10.0, 4) - m)) < 1e-14

    def test_doubly_stochastic(self, k5_metric):
        _, mg, a = k5_metric
        mt = m_tilde(a, mg, 4, 60.0, 40)
        assert np.max(np.abs(mt.sum(axis=0) - 1)) < 1e-8
        assert np.max(np.abs(mt.sum(axis=1) - 1)) < 1e-8

    def test_large_girth_row_matches_walk_power(self):
        # girth 6: no bond is near a 4-cycle, so every row of the t=2
        # average equals the walk matrix squared, at any sample count
        g = cage46()
        assert qge.near_cycle_census(g, 2) == frozenset()
        mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=42))
        a = build_assembly(mg, equi_transmitting_sigma(4))
        m2 = np.linalg.matrix_power(classical_map(a).dense(), 2)
        for samples in (20, 60):
            mt = m_tilde(a, mg, 2, 120.0, samples)
            assert np.max(np.abs(mt - m2)) < 1e-12


class TestFejer:
    def test_values(self):
        w = fejer(4)
        assert w.weight(0) == pytest.approx(0.25)
        assert w.weight(1) == pytest.approx(0.1875)
        assert w.weight(4) == 0.0
        assert w.weight(-2) == w.weight(2)

    def test_t1_concentrates(self):
        w = fejer(1)
        assert w.weight(0) == 1.0
        assert w.weight(1) == 0.0

    @pytest.mark.parametrize("T", list(range(1, 65)))
    def test_normalisation(self, T):
        assert abs(np.sum(fejer(T).values) - 1.0) < 1e-12

    def test_kernel_at_zero(self):
        assert fejer_kernel(7, 0.0) == 1.0

    def test_kernel_nonnegative(self):
        xs = np.linspace(-20, 20, 2001)
        assert all(fejer_kernel(5, x) >= 0.0 for x in xs)

    def test_kernel_matches_quadrature(self):
        # oracle: numeric quadrature of the window transform
        # integral_{-T}^{T} w_hat(t) e^{i t x} dt, evaluated at 20 points
        T = 6
        for x in np.linspace(-3.0, 3.0, 20):
            integrand = lambda t: (1 - abs(t) / T) / T * np.cos(t * x)
            val, _ = scipy.integrate.quad(integrand, -T, T, limit=200)
            assert abs(val - fejer_kernel(T, x)) < 1e-6

    def test_parameter_error(self):
        with pytest.raises(ParameterError):
            fejer(0)
        for T in (-1, 0, 2.5):
            with pytest.raises(ParameterError, match=f"window T={T} must be a positive integer"):
                FejerWeights(T)

    def test_integral_float_window(self):
        w = FejerWeights(4.0)
        assert type(w.T) is int and w == fejer(4)
        assert np.array_equal(w.values, fejer(4).values)


class TestLemmaA:
    def test_identity_observable_equality(self):
        u = unitary_group.rvs(16, random_state=np.random.default_rng(0))
        lhs, rhs = lemma_a_sides(u, np.eye(16), 5)
        assert lhs == pytest.approx(1.0, abs=1e-10)
        assert rhs == pytest.approx(1.0, abs=1e-10)

    def test_u_identity_diagonal(self):
        a = np.diag(np.arange(1.0, 9.0))
        lhs, rhs = lemma_a_sides(np.eye(8, dtype=complex), a, 4)
        expected = float(np.sum(np.arange(1.0, 9.0) ** 2)) / 8
        assert lhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(expected, rel=1e-12)

    def test_random_triples(self):
        rng = np.random.default_rng(1)
        for i in range(20):
            u = unitary_group.rvs(16, random_state=rng)
            a = np.diag(rng.normal(size=16) + 1j * rng.normal(size=16))
            for T in (2, 5, 10):
                lhs, rhs = lemma_a_sides(u, a, T)
                assert lhs <= rhs + 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            lemma_a_sides(np.ones((4, 4)), np.eye(4), 3)


class TestObservable:
    def test_parity_traceless(self):
        g = generate_random_regular(20, 4, seed=2)
        f = parity_observable(g.bond_index, 1.0)
        assert f.traceless
        assert abs(f.trace()) < 1e-12 * 2 * g.B
        assert f.kappa == pytest.approx(1.0)

    def test_parity_odd_n_recentres(self):
        f = parity_observable(k5().bond_index, 1.0)
        assert f.traceless
        assert f.kappa == pytest.approx(1.2)

    def test_parity_traceless_at_large_kappa(self):
        # mean-centring leaves a trace of about 1.6e-8 at kappa = 1e6: rounding
        # at the scale of |f|, which the traceless slack must scale with
        bi = generate_random_regular(81, 4, seed=1).bond_index
        f = parity_observable(bi, 1e6)
        assert abs(f.trace()) > 1e-12 * bi.num_directed
        assert f.traceless
        assert not constant_observable(bi, 1e6).traceless

    @pytest.mark.parametrize("values", [np.zeros((2, 2)), 1.0], ids=["matrix", "scalar"])
    def test_must_be_a_vector(self, values):
        with pytest.raises(ValidationError, match="observable must be a vector"):
            Observable(values)

    @pytest.mark.parametrize("values, sup", [([3.0, 0.0], 3.0), ([1j, -2.0, 0.5], 2.0), ([], 0.0)])
    def test_kappa_is_sup_norm(self, values, sup):
        assert Observable(values).kappa == sup

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError):
            Observable([bad, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_kappa_rejected(self, bad):
        bi = k5().bond_index
        with pytest.raises(ParameterError):
            parity_observable(bi, bad)
        with pytest.raises(ParameterError):
            constant_observable(bi, bad)

    def test_metric_graph_validation(self):
        g = k5()
        with pytest.raises(ValidationError):
            MetricGraph(graph=g, lengths=np.ones(3))
        with pytest.raises(ValidationError):
            MetricGraph(graph=g, lengths=np.zeros(g.B))



def _array_holders() -> dict:
    """For each value type that holds an array: a writeable array of the
    holder's dtype, the holder built on an array, and facts the holder
    derives from it (the operator's through its cached weights)."""
    g = k5()
    s = build_assembly(g, equi_transmitting_sigma(4))
    x = np.arange(2 * g.B, dtype=np.complex128)
    return {
        "Graph.edges": (
            np.array(g.edges),
            lambda a: Graph(n=g.n, d=g.d, edges=a),
            lambda o: o.adjacency,
        ),
        "MetricGraph.lengths": (
            np.full(g.B, 1.5),
            lambda a: MetricGraph(graph=g, lengths=a),
            lambda o: o.directed_lengths,
        ),
        "BondOperator.blocks": (
            np.array(s.blocks),
            lambda a: BondOperator(g.bond_index, a),
            lambda o: o @ x,
        ),
        "BondOperator.phases": (
            np.exp(1j * x.real),
            lambda a: BondOperator(g.bond_index, s.blocks, a),
            lambda o: o @ x,
        ),
        "Observable.f": (
            np.array([1.0, -1.0], dtype=np.complex128),
            Observable,
            lambda o: (o.kappa, o.traceless),
        ),
        "VertexScattering.entries": (
            np.array(s.blocks[0]),
            lambda a: VertexScattering(entries=a),
            lambda o: o.d,
        ),
        "SkewHadamard.entries": (
            np.array(skew_hadamard(4).entries),
            SkewHadamard,
            lambda o: len(o.entries),
        ),
    }


@pytest.mark.parametrize(
    "holder",
    [
        "Graph.edges",
        "MetricGraph.lengths",
        "BondOperator.blocks",
        "BondOperator.phases",
        "Observable.f",
        "VertexScattering.entries",
        "SkewHadamard.entries",
    ],
)
def test_value_types_own_their_arrays(holder):
    # the caller's array stays writeable, a later write to it reaches neither
    # the holder's array nor what the holder derived from it, and a read-only
    # array of the holder's dtype is kept as it is
    array, build, derived = _array_holders()[holder]
    field_name = holder.partition(".")[2]
    original = array.copy()
    obj = build(array)
    held, facts = getattr(obj, field_name), derived(obj)
    assert array.flags.writeable and not held.flags.writeable
    array[...] = 0
    assert np.array_equal(held, original)
    assert np.array_equal(derived(obj), facts)
    assert getattr(build(held), field_name) is held


def test_value_types_with_arrays_compare_by_identity():
    # a field-wise == would compare arrays, whose truth value is ambiguous,
    # and such a type would not hash; these types compare by identity
    g = k5()
    s = build_assembly(g, equi_transmitting_sigma(4))
    values = [
        g,
        g.bond_index,
        MetricGraph(graph=g, lengths=np.ones(g.B)),
        s,
        qge.vertex_basis(g.bond_index),
        Observable(np.ones(2)),
        equi_transmitting_sigma(4),
        skew_hadamard(4),
    ]
    for value in values:
        twin = copy.copy(value)
        assert (value == value) is True and (value == twin) is False
        assert len({value, value, twin}) == 2
