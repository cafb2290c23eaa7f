import numpy as np
import pytest

from qge import (
    IdentityFailureError,
    Observable,
    ParameterError,
    ValidationError,
    WalkBoundUnavailableError,
    build_assembly,
    classical_map,
    decay_profile,
    equi_transmitting_sigma,
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

from conftest import k5, petersen


@pytest.fixture(scope="module")
def k5_walk():
    g = k5()
    a = build_assembly(g, equi_transmitting_sigma(4))
    return g, classical_map(a), vertex_basis(g.bond_index)


def random_walk_setup(n, seed):
    g = generate_random_regular(n, 4, seed=seed)
    a = build_assembly(g, equi_transmitting_sigma(4))
    return g, classical_map(a), vertex_basis(g.bond_index)


class TestClassicalMap:
    def test_et_rows(self, k5_walk):
        _, m, _ = k5_walk
        for row in m:
            nz = row[row > 1e-15]
            assert len(nz) == 3
            assert np.allclose(nz, 1 / 3)

    def test_kirchhoff_rows(self):
        g = k5()
        m = classical_map(build_assembly(g, kirchhoff_sigma(4)))
        bi = g.bond_index
        refl = m[np.arange(2 * g.B), bi.rev]
        assert np.allclose(refl, 0.25)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)

    def test_column_sums(self, k5_walk):
        _, m, _ = k5_walk
        assert np.max(np.abs(m.sum(axis=0) - 1.0)) < 1e-12
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-12


class TestVertexBasis:
    def test_norms(self, k5_walk):
        _, _, basis = k5_walk
        assert np.allclose((basis.e**2).sum(axis=1), 4.0)
        assert np.allclose((basis.e_tilde**2).sum(axis=1), 4.0)

    def test_pairing_is_adjacency(self):
        g = petersen()
        basis = vertex_basis(g.bond_index)
        assert np.array_equal(basis.adjacency, g.adjacency)

    def test_partition_of_bonds(self, k5_walk):
        _, _, basis = k5_walk
        assert np.array_equal(basis.e.sum(axis=0), np.ones(20))
        assert np.array_equal(basis.e_tilde.sum(axis=0), np.ones(20))


class TestWalkIdentities:
    def test_k5(self, k5_walk):
        _, m, basis = k5_walk
        rep = walk_action_identities(m, basis)
        assert rep.max_dev < 1e-12
        assert rep.equi_transmitting

    def test_random_graphs(self):
        for seed in range(3):
            _, m, basis = random_walk_setup(20, seed)
            rep = walk_action_identities(m, basis, strict=True)
            assert rep.max_dev < 1e-10

    def test_kirchhoff_flagged(self):
        g = k5()
        m = classical_map(build_assembly(g, kirchhoff_sigma(4)))
        basis = vertex_basis(g.bond_index)
        rep = walk_action_identities(m, basis)
        assert not rep.equi_transmitting
        assert rep.max_dev_incoming > 0.01  # reflection term present
        with pytest.raises(IdentityFailureError):
            walk_action_identities(m, basis, strict=True)


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

    def test_block_structure(self, k5_walk):
        # grouping bonds by tail vertex block-diagonalises M^T M into
        # identical d x d blocks with entries (d-1)/(d-1)^2, (d-2)/(d-1)^2
        g, m, basis = k5_walk
        d = g.d
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
            z = z_sequence(mu, 4, 50, check=False)
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
        f = basis.e.T @ coeffs
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


class TestG2Contraction:
    def test_k5_ratio(self, k5_walk):
        _, m, basis = k5_walk
        rng = np.random.default_rng(7)
        g_vec = project_g2(rng.normal(size=20) + 1j * rng.normal(size=20), basis)
        assert g2_contraction(m, g_vec, basis) == pytest.approx(1 / 3, abs=1e-9)

    def test_e_v_rejected(self, k5_walk):
        _, m, basis = k5_walk
        with pytest.raises(ValidationError):
            g2_contraction(m, basis.e[0], basis)

    def test_many_random_vectors(self):
        _, m, basis = random_walk_setup(20, 3)
        rng = np.random.default_rng(1)
        for _ in range(20):
            g_vec = project_g2(rng.normal(size=80), basis)
            assert abs(g2_contraction(m, g_vec, basis) - 1 / 3) < 1e-9

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
            g, m, basis = random_walk_setup(20, seed)
            beta = spectral_report(g).beta
            assert beta < 2
            f = parity_observable(g.bond_index)
            rows = decay_profile(m, f, 30, beta, basis)
            assert all(r.bound_kind == "general" for r in rows)
            assert not any(r.violated for r in rows)

    def test_k5_fallback(self, k5_walk):
        # beta = 3 >= d-2: the general constant degenerates and the profile
        # falls back to the span{e_v} envelope
        g, m, basis = k5_walk
        coeffs = np.array([1.0, -1.0, 0.0, 0.0, 0.0])
        f = Observable.from_vector(basis.e.T @ coeffs)
        rows = decay_profile(m, f, 5, 3.0, basis)
        assert all(r.bound_kind == "vertex_span" for r in rows)
        fnorm = np.sqrt(8.0)
        assert rows[0].bound == pytest.approx(2 * fnorm)
        # with beta = 3 the envelope vanishes beyond t=1 while the norms do
        # not; the violation flag reports this honestly
        assert rows[1].bound == 0.0
        assert rows[1].violated

    def test_k5_general_observable_norms_only(self, k5_walk):
        g, m, basis = k5_walk
        rng = np.random.default_rng(4)
        f_raw = rng.normal(size=20)
        f = Observable.from_vector(f_raw - np.mean(f_raw))
        rows = decay_profile(m, f, 4, 3.0, basis)
        assert all(r.bound_kind == "none" for r in rows)
        assert all(np.isnan(r.bound) for r in rows)

    def test_norms_match_complex_route(self):
        g, m, basis = random_walk_setup(40, 7)
        rng = np.random.default_rng(40)
        raw = rng.normal(size=2 * g.B) + 1j * rng.normal(size=2 * g.B)
        f = Observable.from_vector(raw - np.mean(raw))
        rows = decay_profile(m, f, 30, spectral_report(g).beta, basis)
        x = f.f
        for r in rows:
            x = m @ x
            assert r.norm == pytest.approx(float(np.linalg.norm(x)), rel=1e-12)

    def test_rejects_non_traceless(self, k5_walk):
        g, m, basis = k5_walk
        f = Observable.from_vector(np.ones(20))
        with pytest.raises(ValidationError):
            decay_profile(m, f, 5, 1.0, basis)

    def test_decay_constant_domain(self):
        assert walk_decay_constant(4, 1.0) == pytest.approx(7.5)
        with pytest.raises(WalkBoundUnavailableError):
            walk_decay_constant(4, 2.0)
        with pytest.raises(WalkBoundUnavailableError):
            walk_decay_constant(4, 3.0)
