import dataclasses

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from scipy.stats import unitary_group

import qge
from qge import (
    AssemblyError,
    MetricGraph,
    NumericalError,
    Observable,
    ParameterError,
    ValidationError,
    VertexScattering,
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
    trace_correlator,
    variance_estimate,
)

import qge.evolution as evolution_module
from qge.evolution import _CAYLEY_SHIFTS, EIGENBASIS_TOL, _unitarity_deviation, evolution

from conftest import cage46, k5, petersen


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

    def test_size_mismatch(self):
        with pytest.raises(AssemblyError):
            build_assembly(k5(), equi_transmitting_sigma(8))

    def test_per_vertex_rule(self):
        g = k5()
        a = build_assembly(g, [kirchhoff_sigma(4)] * 5)
        assert a.vertex_rule == ("kirchhoff[d=4]",) * 5

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


def _random_unitary(d, seed):
    entries = unitary_group.rvs(d, random_state=np.random.default_rng(seed))
    return VertexScattering(kind="random", entries=entries)


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
        pytest.param(g, [_random_unitary(3, v) for v in range(g.n)], id="random24-unitary")
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
        s = evolution(build_assembly(g, rule), MetricGraph(graph=g, lengths=np.ones(g.B)), 0.0)
        dense = float(np.max(np.abs(s @ s.conj().T - np.eye(s.shape[0]))))
        entries = np.stack([sig.entries for sig in _per_vertex(g, rule)])
        assert abs(_unitarity_deviation(g.bond_index, entries) - dense) <= 1e-14

    def test_non_unitary_sigma_raises(self):
        bad = object.__new__(VertexScattering)  # bypasses the vertex-level check
        object.__setattr__(bad, "kind", "bad")
        object.__setattr__(bad, "entries", 1.001 * equi_transmitting_sigma(4).entries)
        rule = [equi_transmitting_sigma(4)] * 4 + [bad]
        with pytest.raises(NumericalError):
            build_assembly(k5(), rule)

    @pytest.mark.parametrize("field", ["out_bonds", "rev"])
    def test_broken_wiring_raises(self, field):
        g = k5()
        bi = g.bond_index
        broken = getattr(bi, field).copy()
        broken.flat[0] = broken.flat[1]  # one bond wired twice, another never
        g.__dict__["bond_index"] = dataclasses.replace(bi, **{field: broken})
        with pytest.raises(NumericalError):
            build_assembly(g, equi_transmitting_sigma(4))


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

    def test_assume_unitary_keeps_residual_gate(self):
        # the skipped unitarity check leaves the residual gate to reject u
        with pytest.raises(NumericalError):
            eigenbasis(2.0 * np.eye(4, dtype=complex), assume_unitary=True)

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

        def oracle(u, **kwargs):
            oracle_calls.append(kwargs)
            return schur_eigenbasis(u)

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
        e2 = variance_estimate(a, mg, Observable.from_vector(2.5 * f.f), 40.0, 40)
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


class TestTraceCorrelator:
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

    def test_bound_enforced(self):
        with pytest.raises(ValidationError):
            Observable.from_vector([3.0, 0.0], kappa=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError):
            Observable.from_vector([bad, 0.0])

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
