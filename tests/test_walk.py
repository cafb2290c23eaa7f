import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

import qge.experiment
from qge import (
    BoundInputs,
    DecayRow,
    ExperimentConfig,
    MetricGraph,
    Observable,
    ParameterError,
    ValidationError,
    WalkBoundUnavailableError,
    build_assembly,
    classical_map,
    decay_profile,
    equi_transmitting_sigma,
    explicit_variance_bound,
    export_graph,
    family_experiment,
    g2_contraction,
    generate_random_regular,
    kirchhoff_sigma,
    parity_observable,
    project_g1,
    project_g2,
    psi,
    reduced_consistency,
    reduced_matrix,
    singular_profile,
    spectral_report,
    vertex_basis,
    walk_action_identities,
    walk_decay_constant,
    y_from_z,
    z_bound,
    z_closed_form,
    z_sequence,
)
from qge.cli import main
from qge.evolution import evolution
from qge.fileio import save_observable
from qge.graphs import SpectralReport

from conftest import (
    assert_products_match_dense,
    circulant,
    k5,
    petersen,
    random_unitary,
    two_copies,
)


@pytest.fixture(scope="module")
def k5_walk():
    g = k5()
    a = build_assembly(g, equi_transmitting_sigma(4))
    return g, classical_map(a), vertex_basis(g.bond_index)


def random_walk_setup(n, seed):
    g = generate_random_regular(n, 4, seed=seed)
    a = build_assembly(g, equi_transmitting_sigma(4))
    return g, classical_map(a), vertex_basis(g.bond_index)


def dense_basis(basis):
    """The n x 2B indicator matrices e (outgoing) and e~ (incoming)."""
    bonds = np.arange(len(basis.tails))
    e = np.zeros((basis.n, len(bonds)))
    et = np.zeros((basis.n, len(bonds)))
    e[basis.tails, bonds] = 1.0
    et[basis.heads, bonds] = 1.0
    return e, et


def gap_report(m, beta):
    """A spectral report of m's graph, read as connected and not bipartite,
    whose walk gap is beta: decay_profile's bound kinds at a chosen gap."""
    n, d = m.bond_index.out_bonds.shape
    return SpectralReport(n=n, d=d, mu=None, beta=beta, is_connected=True, is_bipartite=False)


def _rule_cases():
    """(graph, rule) pairs: K5, Petersen and random graphs with n <= 80
    under equi-transmitting, Kirchhoff, mixed and random-unitary rules."""
    rng = np.random.default_rng(12)
    et, kh = equi_transmitting_sigma(4), kirchhoff_sigma(4)
    pet = petersen()
    cases = [
        pytest.param(k5(), et, id="k5-et"),
        pytest.param(k5(), kh, id="k5-kirchhoff"),
        pytest.param(pet, kirchhoff_sigma(3), id="petersen-kirchhoff"),
        pytest.param(pet, [random_unitary(3, rng) for _ in range(pet.n)], id="petersen-unitary"),
    ]
    for n, seed in ((20, 1), (80, 2)):
        g = generate_random_regular(n, 4, seed=seed)
        cases += [
            pytest.param(g, et, id=f"random{n}-et"),
            pytest.param(g, kh, id=f"random{n}-kirchhoff"),
            pytest.param(g, [(et, kh)[v % 2] for v in range(g.n)], id=f"random{n}-mixed"),
            pytest.param(g, [random_unitary(4, rng) for _ in range(g.n)], id=f"random{n}-unitary"),
        ]
    g = generate_random_regular(30, 5, seed=3)
    cases.append(pytest.param(g, [random_unitary(5, rng) for _ in range(g.n)], id="random30-d5-unitary"))
    return cases


RULE_CASES = _rule_cases()


class TestClassicalMap:
    def test_et_rows(self, k5_walk):
        _, m, _ = k5_walk
        for row in m.dense():
            nz = row[row > 1e-15]
            assert len(nz) == 3
            assert np.allclose(nz, 1 / 3)

    def test_kirchhoff_rows(self):
        g = k5()
        m = classical_map(build_assembly(g, kirchhoff_sigma(4))).dense()
        bi = g.bond_index
        refl = m[np.arange(2 * g.B), bi.rev]
        assert np.allclose(refl, 0.25)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)

    def test_column_sums(self, k5_walk):
        m = k5_walk[1].dense()
        assert np.max(np.abs(m.sum(axis=0) - 1.0)) < 1e-12
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-12


    @pytest.mark.parametrize("g,rule", RULE_CASES)
    def test_matvec_matches_dense(self, g, rule):
        assert_products_match_dense(g, rule)

    def test_rejects_wrong_length(self, k5_walk):
        _, m, _ = k5_walk
        with pytest.raises(ValidationError):
            m @ np.ones(21)


class TestVertexBasis:
    def test_norms(self, k5_walk):
        e, e_tilde = dense_basis(k5_walk[2])
        assert np.allclose((e**2).sum(axis=1), 4.0)
        assert np.allclose((e_tilde**2).sum(axis=1), 4.0)

    def test_pairing_is_adjacency(self):
        g = petersen()
        e, e_tilde = dense_basis(vertex_basis(g.bond_index))
        assert np.array_equal((e @ e_tilde.T).astype(np.int64), g.adjacency)

    def test_partition_of_bonds(self, k5_walk):
        e, e_tilde = dense_basis(k5_walk[2])
        assert np.array_equal(e.sum(axis=0), np.ones(20))
        assert np.array_equal(e_tilde.sum(axis=0), np.ones(20))


    def test_index_routes_match_dense(self):
        g, _, basis = random_walk_setup(20, 5)
        e, e_tilde = dense_basis(basis)
        rng = np.random.default_rng(8)
        x = rng.normal(size=2 * g.B) + 1j * rng.normal(size=2 * g.B)
        x_hat = rng.normal(size=2 * g.n) + 1j * rng.normal(size=2 * g.n)
        assert np.allclose(basis.overlaps(x), e @ x, rtol=1e-14, atol=1e-14)
        assert np.allclose(project_g1(x, basis), e.T @ ((e @ x) / g.d), rtol=1e-14, atol=1e-14)
        dense_psi = e.T @ x_hat[: g.n] + e_tilde.T @ x_hat[g.n :]
        assert np.allclose(psi(x_hat, basis), dense_psi, rtol=1e-14, atol=1e-14)


class TestWalkIdentities:
    def test_k5(self, k5_walk):
        _, m, _ = k5_walk
        rep = walk_action_identities(m)
        assert rep.max_dev < 1e-12
        assert rep.equi_transmitting

    def test_random_graphs(self):
        for seed in range(3):
            _, m, _ = random_walk_setup(20, seed)
            rep = walk_action_identities(m)
            assert rep.max_dev < 1e-10

    def test_kirchhoff_flagged(self):
        g = k5()
        m = classical_map(build_assembly(g, kirchhoff_sigma(4)))
        rep = walk_action_identities(m)
        assert not rep.equi_transmitting
        assert rep.max_dev_incoming > 0.01  # reflection term present


    @pytest.mark.parametrize("g,rule", RULE_CASES)
    def test_matches_dense_route(self, g, rule):
        # the dense computation on M e_v and M e~_v that the block form replaces
        m = classical_map(build_assembly(g, rule))
        basis = vertex_basis(g.bond_index)
        e, e_tilde = dense_basis(basis)
        dense = m.dense()
        dev_out = float(np.max(np.abs(dense @ e.T - e_tilde.T)))
        expected = (g.adjacency @ e_tilde - e) / (g.d - 1)
        dev_in = float(np.max(np.abs(dense @ e_tilde.T - expected.T)))
        rep = walk_action_identities(m)
        assert rep.max_dev_outgoing == pytest.approx(dev_out, abs=1e-14)
        assert rep.max_dev_incoming == pytest.approx(dev_in, abs=1e-14)


class TestSingularProfile:
    def test_k5_multiset(self, k5_walk):
        _, m, _ = k5_walk
        sv = singular_profile(m)
        assert np.allclose(sv[:5], 1.0, atol=1e-9)
        assert np.allclose(sv[5:], 1 / 3, atol=1e-9)

    def test_random_graph_multiset(self):
        g, m, _ = random_walk_setup(20, 4)
        sv = singular_profile(m)
        assert np.allclose(sv[: g.n], 1.0, atol=1e-9)
        assert np.allclose(sv[g.n :], 1 / 3, atol=1e-9)

    @pytest.mark.parametrize("g,rule", RULE_CASES)
    def test_matches_dense_oracle(self, g, rule):
        # squares against the eigenvalues of M^T M: the square root would
        # amplify the oracle's rounding at the zero singular values of
        # Kirchhoff blocks
        m = classical_map(build_assembly(g, rule))
        sv = singular_profile(m)
        dense = m.dense()
        oracle = np.linalg.eigvalsh(dense.T @ dense)[::-1]
        assert sv.shape == (2 * g.B,)
        assert np.all(np.diff(sv) <= 0.0)
        assert np.max(np.abs(sv**2 - oracle)) < 1e-12

    def test_block_structure(self, k5_walk):
        # grouping bonds by tail vertex block-diagonalises M^T M into
        # identical d x d blocks with entries (d-1)/(d-1)^2, (d-2)/(d-1)^2
        g, m, basis = k5_walk
        d = g.d
        m = m.dense()
        gram = m.T @ m
        j_block = ((d - 2) * np.ones((d, d)) + np.eye(d)) / (d - 1) ** 2
        bi = g.bond_index
        order = [b for v in range(g.n) for b in bi.out_bonds[v]]
        perm = gram[np.ix_(order, order)]
        for v in range(g.n):
            sl = slice(v * d, (v + 1) * d)
            assert np.allclose(perm[sl, sl], j_block, atol=1e-12)
        off = perm.copy()
        for v in range(g.n):
            sl = slice(v * d, (v + 1) * d)
            off[sl, sl] = 0.0
        assert np.max(np.abs(off)) < 1e-12

    def test_j_block_eigenvalues(self):
        d = 4
        j_block = ((d - 2) * np.ones((d, d)) + np.eye(d)) / (d - 1) ** 2
        evals = np.sort(np.linalg.eigvalsh(j_block))[::-1]
        assert evals[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(evals[1:], (d - 1) ** -2, atol=1e-12)


class TestZMachinery:
    def test_one_step(self):
        z = z_sequence(1.3, 4, 2)
        assert z[0] == 0.0 and z[1] == 1.0
        assert z[2] == pytest.approx(1.3 / 3)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_mu_rejected(self, mu):
        # a NaN mu used to return [0, 1, nan, ...]: its closed-form guard reads False
        with pytest.raises(ParameterError):
            z_sequence(mu, 4, 4)

    def test_closed_form_agreement(self):
        for mu in np.linspace(-3.0, 3.0, 41):
            z = z_sequence(float(mu), 4, 40)
            zc = z_closed_form(float(mu), 4, 40)
            scale = max(1.0, float(np.max(np.abs(z))))
            assert np.max(np.abs(z - zc)) < 1e-9 * scale

    def test_closed_form_outside_unit_omega(self):
        mu = 3.8  # omega > 1
        z = z_sequence(mu, 4, 30)
        zc = z_closed_form(mu, 4, 30)
        assert np.max(np.abs(z - zc)) < 1e-9 * float(np.max(np.abs(z)))

    def test_critical_mu(self):
        # |mu| = 2 sqrt(d-1): |z_t| = t/(d-1)^((t-1)/2)
        for sign in (1, -1):
            mu = sign * 2 * np.sqrt(3.0)
            z = z_sequence(mu, 4, 50)
            expected = np.array([t / 3 ** ((t - 1) / 2) for t in range(51)])
            assert np.max(np.abs(np.abs(z) - expected)) < 1e-10

    def test_bound_on_grid(self):
        bound = z_bound(4, 1.0, 50)
        for mu in np.linspace(-3.0, 3.0, 200):
            z = z_sequence(float(mu), 4, 50)
            assert np.all(np.abs(z[1:]) <= bound[1:] + 1e-12)

    def test_y_relation(self):
        z = z_sequence(2.1, 4, 10)
        y = y_from_z(z, 4)
        assert y[0] == 0.0
        assert np.allclose(y[1:], -z[:-1] / 3)

    def test_degenerate_closed_form_rejected(self):
        with pytest.raises(ParameterError):
            z_closed_form(2 * np.sqrt(3.0), 4, 5)


class TestReducedEvolution:
    def test_reduced_matrix_shape(self):
        g = k5()
        c_hat = reduced_matrix(g)
        assert c_hat.shape == (10, 10)
        assert np.allclose(c_hat[:5, 5:], -np.eye(5) / 3)
        assert np.allclose(c_hat[5:, :5], np.eye(5))
        assert np.allclose(c_hat[5:, 5:], g.adjacency / 3)

    def test_consistency_k5(self, k5_walk):
        g, m, _ = k5_walk
        coeffs = np.array([1.0, -1.0, 0.0, 0.0, 0.0])
        for t in range(11):
            assert reduced_consistency(g, m, coeffs, t) < 1e-12

    def test_consistency_random(self):
        g, m, _ = random_walk_setup(20, 1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            coeffs = rng.normal(size=g.n)
            for t in (0, 3, 7, 10):
                assert reduced_consistency(g, m, coeffs, t) < 1e-10

    def test_t0_identity(self, k5_walk):
        g, m, basis = k5_walk
        coeffs = np.array([0.3, -1.2, 0.9, 0.0, 0.0])
        f = dense_basis(basis)[0].T @ coeffs
        assert reduced_consistency(g, m, f, 0) == 0.0

    def test_psi_kernel(self, k5_walk):
        _, _, basis = k5_walk
        ones = np.ones(5)
        assert np.linalg.norm(psi(np.concatenate([ones, -ones]), basis)) == 0.0

    def test_psi_norm_inequality(self):
        # ||psi(x; y)|| <= sqrt(d) (||x|| + ||y||)
        g, _, basis = random_walk_setup(20, 6)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x_hat = rng.normal(size=2 * g.n) + 1j * rng.normal(size=2 * g.n)
            lhs = np.linalg.norm(psi(x_hat, basis))
            rhs = np.sqrt(g.d) * (
                np.linalg.norm(x_hat[: g.n]) + np.linalg.norm(x_hat[g.n :])
            )
            assert lhs <= rhs + 1e-12

    def test_rejects_outside_span(self, k5_walk):
        g, m, basis = k5_walk
        rng = np.random.default_rng(2)
        f = project_g2(rng.normal(size=20), basis)
        with pytest.raises(ValidationError):
            reduced_consistency(g, m, f, 2)

    def test_rejects_a_wrong_length(self, k5_walk):
        # f is n vertex coefficients or a 2B bond vector, nothing else
        g, m, basis = k5_walk
        with pytest.raises(ValidationError, match="length n .* or 2B"):
            reduced_consistency(g, m, np.ones(7), 2)
        with pytest.raises(ValidationError, match="length 10"):
            psi(np.ones(5), basis)


class TestG2Contraction:
    def test_k5_ratio(self, k5_walk):
        _, m, basis = k5_walk
        rng = np.random.default_rng(7)
        g_vec = project_g2(rng.normal(size=20) + 1j * rng.normal(size=20), basis)
        assert g2_contraction(m, g_vec) == pytest.approx(1 / 3, abs=1e-9)

    def test_e_v_rejected(self, k5_walk):
        _, m, basis = k5_walk
        with pytest.raises(ValidationError):
            g2_contraction(m, dense_basis(basis)[0][0])

    def test_zero_vector_rejected(self, k5_walk):
        _, m, _ = k5_walk
        with pytest.raises(ValidationError, match="zero vector"):
            g2_contraction(m, np.zeros(20))

    def test_many_random_vectors(self):
        _, m, basis = random_walk_setup(20, 3)
        rng = np.random.default_rng(1)
        for _ in range(20):
            g_vec = project_g2(rng.normal(size=80), basis)
            assert abs(g2_contraction(m, g_vec) - 1 / 3) < 1e-9

    def test_projections_orthogonal(self, k5_walk):
        _, _, basis = k5_walk
        rng = np.random.default_rng(9)
        x = rng.normal(size=20)
        g1 = project_g1(x, basis)
        g2 = project_g2(x, basis)
        assert np.allclose(g1 + g2, x)
        assert abs(np.dot(g1, g2)) < 1e-12


class TestDecayProfile:
    def test_random_graphs_no_violation(self):
        for seed in (1, 2):
            g, m, _ = random_walk_setup(20, seed)
            rep = spectral_report(g)
            assert rep.beta < 2
            f = parity_observable(g.bond_index)
            rows = decay_profile(m, f, 30, rep)
            assert all(r.bound_kind == "general" for r in rows)
            assert not any(r.violated for r in rows)

    def test_k5_fallback(self, k5_walk):
        # beta = 3 >= d-2: the general constant degenerates, and d-1-beta = 0
        # < sqrt(d-1) breaks the span{e_v} envelope's premise (it would read
        # 0 from t = 2 on while the norms stay): norms only
        g, m, basis = k5_walk
        coeffs = np.array([1.0, -1.0, 0.0, 0.0, 0.0])
        f = Observable(dense_basis(basis)[0].T @ coeffs)
        rows = decay_profile(m, f, 5, spectral_report(g))
        assert all(r.bound_kind == "none" and np.isnan(r.bound) for r in rows)
        assert rows[1].norm > 0.1 and not any(r.violated for r in rows)
        # a gap of 0 meets the premise and the gate refuses it: the envelope
        rows = decay_profile(m, f, 5, gap_report(m, 0.0))
        assert all(r.bound_kind == "vertex_span" for r in rows)
        assert rows[0].bound == pytest.approx(2 * np.sqrt(8.0))

    @pytest.mark.parametrize("beta, kind", [(2.0, "none"), (-0.0, "vertex_span")])
    def test_vertex_span_premise_at_the_gate(self, k5_walk, beta, kind):
        # outside the gate's (0, d-2) the premise d-1-beta >= sqrt(d-1)
        # holds only at beta <= 0: at beta = d-2, d-1-beta = 1 < sqrt(3)
        _, m, basis = k5_walk
        f = Observable(dense_basis(basis)[0].T @ np.array([1.0, -1.0, 0.0, 0.0, 0.0]))
        assert {r.bound_kind for r in decay_profile(m, f, 3, gap_report(m, beta))} == {kind}

    def test_k5_walk_decay_command(self, tmp_path):
        # the parity observable on K5 (walk gap 3) lies in span{e_v}; its
        # norms 1.79, 1.19, 0.80, 0.29, 0.28 at t = 2..6 once stood against
        # a vertex_span bound of 0
        gpath, out = tmp_path / "k5.txt", tmp_path / "decay.csv"
        gpath.write_text(export_graph(k5()))
        argv = ["walk", "decay", "--graph", str(gpath), "--T", "6", "--obs", "parity"]
        assert main([*argv, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert [row["bound_kind"] for row in rows] == ["none"] * 6
        assert all(row["bound"] == "nan" for row in rows)
        assert [round(float(row["norm"]), 2) for row in rows[1:]] == [1.79, 1.19, 0.8, 0.29, 0.28]
        g = k5()
        rep = spectral_report(g)
        m = classical_map(build_assembly(g, equi_transmitting_sigma(4)))
        profile = decay_profile(m, parity_observable(g.bond_index), 6, rep)
        assert rep.walk_gap == pytest.approx(3.0)
        assert [(r.norm, r.bound_kind) for r in profile] == [(float(row["norm"]), "none") for row in rows]

    def test_k5_general_observable_norms_only(self, k5_walk):
        g, m, _ = k5_walk
        rng = np.random.default_rng(4)
        f_raw = rng.normal(size=20)
        f = Observable(f_raw - np.mean(f_raw))
        rows = decay_profile(m, f, 4, spectral_report(g))
        assert all(r.bound_kind == "none" for r in rows)
        assert all(np.isnan(r.bound) for r in rows)

    def test_norms_match_complex_route(self):
        g, m, _ = random_walk_setup(40, 7)
        rng = np.random.default_rng(40)
        raw = rng.normal(size=2 * g.B) + 1j * rng.normal(size=2 * g.B)
        f = Observable(raw - np.mean(raw))
        rows = decay_profile(m, f, 30, spectral_report(g))
        x = f.f
        for r in rows:
            x = m @ x
            assert r.norm == pytest.approx(float(np.linalg.norm(x)), rel=1e-12)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_norms_match_dense_route(self, seed):
        # the route the gather replaces: dense |S|^2 on the real pair
        # [f.real, f.imag]
        g = generate_random_regular(60, 4, seed=seed)
        a = build_assembly(g, equi_transmitting_sigma(4))
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=2 * g.B) + 1j * rng.normal(size=2 * g.B)
        f = Observable(raw - np.mean(raw))
        rows = decay_profile(classical_map(a), f, 30, spectral_report(g))
        # U(0) = S exactly
        dense = np.abs(evolution(a, MetricGraph(graph=g, lengths=np.ones(g.B)), 0.0)) ** 2
        x = np.stack([f.f.real, f.f.imag], axis=1)
        for r in rows:
            x = dense @ x
            assert r.norm == pytest.approx(float(np.linalg.norm(x)), rel=1e-13)

    def test_nan_norm_is_violated(self):
        assert DecayRow(t=1, norm=float("nan"), bound=1.0, bound_kind="general").violated
        assert not DecayRow(t=1, norm=0.5, bound=1.0, bound_kind="general").violated
        assert not DecayRow(t=1, norm=float("nan"), bound=float("nan"), bound_kind="none").violated

    def test_large_graph_without_dense_matrices(self):
        # 2B = 80000: a dense S would take 95 GiB, an n x 2B basis 12 GiB
        g = generate_random_regular(20000, 4, seed=5)
        tracemalloc.start()
        try:
            a = build_assembly(g, equi_transmitting_sigma(4))
            m = classical_map(a)
            rows = decay_profile(m, parity_observable(g.bond_index), 30, gap_report(m, 2.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert not hasattr(a, "S")  # no dense S exists to be built
        assert len(rows) == 30 and all(np.isfinite(r.norm) for r in rows)

    def test_rejects_non_traceless(self, k5_walk):
        _, m, _ = k5_walk
        f = Observable(np.ones(20))
        with pytest.raises(ValidationError):
            decay_profile(m, f, 5, gap_report(m, 1.0))

    def test_rejects_another_graphs_report(self, k5_walk):
        g, m, _ = k5_walk
        f = parity_observable(g.bond_index)
        rep = spectral_report(g)
        for other in (dataclasses.replace(rep, n=6), dataclasses.replace(rep, d=3), spectral_report(petersen())):
            with pytest.raises(ValidationError, match="spectral report"):
                decay_profile(m, f, 5, other)

    def test_decay_constant_domain(self):
        assert walk_decay_constant(4, 1.0) == pytest.approx(7.5)
        for beta in (2.0, 3.0, 0.0, -0.0, -0.5):
            with pytest.raises(WalkBoundUnavailableError):
                walk_decay_constant(4, beta)

    def test_bounds_are_the_envelope_scaled(self):
        # general rows read K r ||f|| z_bound[t] = K ||f|| t r^t, vertex-span
        # rows 2 ||f|| z_bound[t]
        g, m, basis = random_walk_setup(20, 1)
        rep = spectral_report(g)
        f = parity_observable(g.bond_index)
        fnorm = np.linalg.norm(f.f)
        const, ratio = walk_decay_constant(4, rep.beta), (3.0 - rep.beta) / 3.0
        rows = decay_profile(m, f, 30, rep)
        for r in rows:
            assert r.bound == pytest.approx(const * fnorm * r.t * ratio**r.t, rel=1e-14)
        f = Observable(dense_basis(basis)[0].T @ (np.arange(20.0) - 9.5))
        envelope = z_bound(4, 0.0, 30)
        rows = decay_profile(m, f, 30, gap_report(m, 0.0))
        assert [r.bound_kind for r in rows] == ["vertex_span"] * 30
        assert [r.bound for r in rows] == list(2.0 * np.linalg.norm(f.f) * envelope[1:])


def _component_sign(g):
    """+1 on the bonds leaving the first copy of two_copies, -1 on the
    second: traceless and fixed by M."""
    return Observable(np.where(g.bond_index.tails < g.n // 2, 1.0, -1.0))


# graphs whose beta lies below d - 2 while their walk does not decay: the
# circulant is bipartite, the union of two copies disconnected; each comes
# with an observable that M keeps at its norm (the tail colour's sign, the
# component's sign)
NON_ERGODIC = {
    "C14(1,3)": (circulant(14, (1, 3)), lambda g: parity_observable(g.bond_index)),
    "two-n20": (two_copies(generate_random_regular(20, 4, seed=1)), _component_sign),
}


class TestWalkGap:
    @pytest.mark.parametrize("case", NON_ERGODIC)
    def test_gap_keeps_what_beta_removes(self, case):
        g, observable = NON_ERGODIC[case]
        rep = spectral_report(g)
        assert 0.5 < rep.beta < 2.0 and not rep.ergodic and rep.walk_gap == 0.0
        m = classical_map(build_assembly(g, equi_transmitting_sigma(4)))
        f = observable(g)
        fnorm = np.linalg.norm(f.f)
        # the norms never decay, and the walk's gap leaves only the span{e_v}
        # envelope
        rows = decay_profile(m, f, 30, rep)
        assert all(r.norm == pytest.approx(fnorm, rel=1e-12) for r in rows)
        assert [r.bound_kind for r in rows] == ["vertex_span"] * 30
        assert not any(r.violated for r in rows)

    def test_ergodic_graph_keeps_beta(self):
        rep = spectral_report(generate_random_regular(20, 4, seed=1))
        assert rep.ergodic and rep.walk_gap == rep.beta

    @pytest.mark.parametrize("case", NON_ERGODIC)
    def test_walk_decay_command(self, case, tmp_path):
        g, observable = NON_ERGODIC[case]
        gpath, obs, out = tmp_path / "g.txt", tmp_path / "obs.txt", tmp_path / "decay.csv"
        gpath.write_text(export_graph(g))
        save_observable(obs, observable(g))
        argv = ["walk", "decay", "--graph", str(gpath), "--T", "30", "--obs", str(obs)]
        assert main([*argv, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert len(rows) == 30
        for row in rows:
            assert row["bound_kind"] == "vertex_span"
            assert float(row["norm"]) <= float(row["bound"])

    @pytest.mark.parametrize("case", NON_ERGODIC)
    def test_sweep_row_bound_unavailable(self, case, monkeypatch):
        g, _ = NON_ERGODIC[case]
        monkeypatch.setattr(qge.experiment, "generate_random_regular", lambda n, d, seed: g)
        cfg = ExperimentConfig(d=4, n_list=(g.n,), seeds=(1,), K=10.0, samples=3)
        (row,) = family_experiment(cfg)
        assert (row.status, row.bound_kind, row.bound_terms) == ("ok", "walk-unavailable", {})
        assert np.isnan(row.bound)
        assert row.beta == spectral_report(g).beta  # the column keeps graph info's beta

    def test_zero_gap_is_unavailable_not_invalid(self):
        # a walk gap of 0 reaches the gate, which refuses it as it refuses
        # beta >= d - 2, so a sweep row reads walk-unavailable, not an error
        inputs = BoundInputs(kappa=1.0, d=4, beta=0.0, T=3, census=0, B=40)
        with pytest.raises(WalkBoundUnavailableError):
            explicit_variance_bound(inputs)
