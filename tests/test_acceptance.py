"""Acceptance suite: one test per criterion, each at its stated tolerance.

Criteria are numbered in the test names; the terminal summary prints one
PASS/FAIL line per criterion at the end of the run (see conftest).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import unitary_group

import qge
from qge import (
    MetricGraph,
    build_assembly,
    classical_map,
    constant_observable,
    cycle_bond_census,
    draw_lengths,
    equi_transmitting_sigma,
    family_experiment,
    fejer_geo_sum,
    generate_random_regular,
    girth,
    import_graph,
    is_equi_transmitting,
    lemma_a_sides,
    m_tilde,
    near_cycle_census,
    project_g2,
    reduced_consistency,
    singular_profile,
    skew_hadamard,
    spectral_report,
    variance_estimate,
    vertex_basis,
    walk_action_identities,
    walk_decay_constant,
    weighted_geo_sum,
    z_bound,
    z_closed_form,
    z_sequence,
)

from conftest import cage46, k5, oracle_cycle_census, oracle_near_census, petersen


def et_assembly(g, length_seed=0):
    mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=length_seed))
    return mg, build_assembly(mg, equi_transmitting_sigma(g.d))


@pytest.fixture(scope="module")
def walk_instances():
    """K5 plus ten random 4-regular graphs, shared by criteria 3 and 4."""
    graphs = [k5()] + [generate_random_regular(20, 4, seed=s) for s in range(10)]
    out = []
    for g in graphs:
        a = build_assembly(g, equi_transmitting_sigma(4))
        out.append((g, classical_map(a)))
    return out


def test_criterion_01_unitarity_and_no_backscatter():
    """20 random 4-regular graphs (n <= 50): evolution unitary to 1e-10 and
    zero reversal entries, 100 random k each."""
    rng = np.random.default_rng(101)
    worst_unitarity = 0.0
    for i, n in enumerate(range(10, 50, 2)):
        g = generate_random_regular(n, 4, seed=1000 + i)
        mg, a = et_assembly(g, length_seed=i)
        bi = g.bond_index
        idx = np.arange(2 * g.B)
        eye = np.eye(2 * g.B)
        for k in rng.uniform(0.0, 100.0, size=100):
            u = qge.evolution.evolution(a, mg, k)
            worst_unitarity = max(
                worst_unitarity, float(np.max(np.abs(u @ u.conj().T - eye)))
            )
            assert np.all(u[idx, bi.rev] == 0.0)
    assert worst_unitarity < 1e-10


def test_criterion_02_scattering_constructions():
    """Skew-Hadamard identities exact for orders {2,4,8,12,16}; the derived
    vertex matrices pass the equi-transmitting check at 1e-9; d=3 raises."""
    for m in (2, 4, 8, 12, 16):
        h = skew_hadamard(m).entries
        assert np.array_equal(h + h.T, 2 * np.eye(m, dtype=np.int64))
        assert np.array_equal(h @ h.T, m * np.eye(m, dtype=np.int64))
        assert is_equi_transmitting(equi_transmitting_sigma(m).entries)
    assert qge.scattering.EQUI_TRANSMITTING_TOL <= 1e-9
    with pytest.raises(qge.NoEquiTransmittingMatrixError):
        equi_transmitting_sigma(3)


def test_criterion_03_walk_identities(walk_instances):
    """M e_v = e~_v and M e~_v = (sum_{w~v} e~_w - e_v)/(d-1) to 1e-10 on
    K5 and 10 random 4-regular graphs, all vertices."""
    worst = 0.0
    for _, m in walk_instances:
        rep = walk_action_identities(m)
        worst = max(worst, rep.max_dev)
    assert worst < 1e-10


def test_criterion_04_singular_profile(walk_instances):
    """Singular values of M equal {1 x n, 1/3 x 3n} within 1e-9 on the same
    instances."""
    for g, m in walk_instances:
        sv = singular_profile(m)
        assert np.max(np.abs(sv[: g.n] - 1.0)) < 1e-9
        assert np.max(np.abs(sv[g.n :] - 1.0 / 3.0)) < 1e-9


def test_criterion_05_z_machinery():
    """Recurrence vs closed form to 1e-9 relative on a 200-point mu grid;
    envelope never violated for t <= 50; the critical closed form matched
    to 1e-10."""
    d, beta, t_max = 4, 1.0, 50
    grid = np.linspace(-(d - beta), d - beta, 200)
    envelope = z_bound(d, beta, t_max)
    for mu in grid:
        z = z_sequence(float(mu), d, t_max)
        zc = z_closed_form(float(mu), d, t_max)
        scale = max(1.0, float(np.max(np.abs(z))))
        assert np.max(np.abs(z - zc)) < 1e-9 * scale
        assert np.all(np.abs(z[1:]) <= envelope[1:] + 1e-12)
    for mu in (2 * math.sqrt(d - 1), -2 * math.sqrt(d - 1)):
        z = z_sequence(mu, d, t_max)
        critical = np.array([t / (d - 1) ** ((t - 1) / 2) for t in range(t_max + 1)])
        assert np.max(np.abs(np.abs(z) - critical)) < 1e-10


def test_criterion_06_reduced_evolution_consistency():
    """Reduced 2n-dimensional iteration reproduces M^t f to 1e-10 for 10
    random span{e_v} observables, t <= 10, on K5 and a random n=20 graph."""
    rng = np.random.default_rng(6)
    for g in (k5(), generate_random_regular(20, 4, seed=17)):
        a = build_assembly(g, equi_transmitting_sigma(4))
        m = classical_map(a)
        for _ in range(10):
            coeffs = rng.normal(size=g.n)
            for t in range(11):
                assert reduced_consistency(g, m, coeffs, t) < 1e-10


def test_criterion_07_decay_theorem():
    """On 10 random 4-regular n=20 graphs with measured beta < 2:
    ||M^t f|| <= (5(d-1)/(2(d-2-beta))) ||f|| t ((d-1-beta)/(d-1))^t for 50
    random traceless f each, t = 1..30, zero violations."""
    rng = np.random.default_rng(2024)
    d = 4
    found = 0
    seed = 0
    while found < 10:
        g = generate_random_regular(20, d, seed=seed)
        seed += 1
        beta = spectral_report(g).beta
        if beta >= d - 2:
            continue
        found += 1
        a = build_assembly(g, equi_transmitting_sigma(d))
        m = classical_map(a)
        const = walk_decay_constant(d, beta)
        ratio = (d - 1 - beta) / (d - 1)
        for _ in range(50):
            f = rng.normal(size=2 * g.B)
            f -= f.mean()
            fnorm = np.linalg.norm(f)
            x = f
            for t in range(1, 31):
                x = m @ x
                assert np.linalg.norm(x) <= const * fnorm * t * ratio**t


def test_criterion_08_g2_contraction():
    """||M g||/||g|| = 1/3 within 1e-9 for 100 random vectors orthogonal to
    span{e_v}."""
    g = generate_random_regular(20, 4, seed=8)
    a = build_assembly(g, equi_transmitting_sigma(4))
    m = classical_map(a)
    basis = vertex_basis(g.bond_index)
    rng = np.random.default_rng(88)
    for _ in range(100):
        vec = project_g2(rng.normal(size=2 * g.B) + 1j * rng.normal(size=2 * g.B), basis)
        assert abs(qge.g2_contraction(m, vec) - 1.0 / 3.0) < 1e-9


def test_criterion_09_windowed_trace_inequality():
    """lhs <= rhs + 1e-8 on 100 random (16x16 unitary, diagonal A, T) triples
    with T in {2,5,10}; the A=I case gives lhs = rhs = 1 within 1e-10."""
    rng = np.random.default_rng(9)
    t_choices = (2, 5, 10)
    for i in range(100):
        u = unitary_group.rvs(16, random_state=rng)
        a = np.diag(rng.normal(size=16) + 1j * rng.normal(size=16))
        lhs, rhs = lemma_a_sides(u, a, t_choices[i % 3])
        assert lhs <= rhs + 1e-8
    u = unitary_group.rvs(16, random_state=rng)
    lhs, rhs = lemma_a_sides(u, np.eye(16), 5)
    assert abs(lhs - 1.0) < 1e-10
    assert abs(rhs - 1.0) < 1e-10


def test_criterion_10_census_inequality_and_oracle():
    """|near(t)| <= (d-1)^(t-1)/(d-2) |cycle bonds(2t)| exactly as integers
    for t in {2,3,4} on K5, Petersen and 10 random graphs (n <= 30);
    Petersen censuses equal the exhaustive-enumeration oracle."""
    graphs = [k5(), petersen()]
    sizes = [12, 14, 16, 18, 20, 22, 24, 26, 28, 30]
    graphs += [generate_random_regular(n, 4, seed=s) for s, n in enumerate(sizes)]
    for g in graphs:
        for t in (2, 3, 4):
            lhs = len(near_cycle_census(g, t))
            c_directed = 2 * len(cycle_bond_census(g, 2 * t))
            rhs = Fraction((g.d - 1) ** (t - 1) * c_directed, g.d - 2)
            assert Fraction(lhs) <= rhs
    pet = petersen()
    for t in (3, 4, 5, 6, 7, 8):
        assert cycle_bond_census(pet, t) == oracle_cycle_census(pet, t)
    for t in (2, 3, 4):
        assert near_cycle_census(pet, t) == oracle_near_census(pet, t)


def test_criterion_11_return_path_identity():
    """On an imported girth-6 graph, rows outside the near-cycle set match
    the walk power: deviation non-increasing (within noise) over samples
    {50, 200, 800} and below 5e-3 at the end."""
    text = qge.export_graph(cage46())
    g = import_graph(text)
    assert girth(g) >= 6
    t = 2
    assert near_cycle_census(g, t) == frozenset()  # every b0 qualifies
    mg, a = et_assembly(g, length_seed=42)
    m_power = np.linalg.matrix_power(classical_map(a).dense(), t)
    devs = []
    for samples in (50, 200, 800):
        mt = m_tilde(a, mg, t, 200.0, samples)
        devs.append(float(np.max(np.abs(mt - m_power))))
    noise = 1e-12
    assert devs[1] <= devs[0] + noise
    assert devs[2] <= devs[1] + noise
    assert devs[-1] < 5e-3


def test_criterion_12_summation_lemmas():
    """Closed forms match brute force to 1e-12 (relative) across the theta
    and T grid."""
    w_cache = {T: qge.fejer(T) for T in range(1, 21)}
    for theta in (-3.0, -0.5, 0.5, 2.0, 3.0):
        for T in range(1, 21):
            brute = math.fsum(t * theta**t for t in range(1, T + 1))
            closed = weighted_geo_sum(theta, T)
            assert abs(closed - brute) <= 1e-12 * max(1.0, abs(brute))
            w = w_cache[T]
            brute_f = math.fsum(theta**t * w.weight(t) for t in range(1, T + 1))
            closed_f = fejer_geo_sum(theta, T)
            assert abs(closed_f - brute_f) <= 1e-12 * max(1.0, abs(brute_f))
    # the |theta| < 1 infinite sum, against partial sums at machine convergence
    partial = math.fsum(t * 0.5**t for t in range(1, 300))
    assert abs(qge.weighted_geo_sum_inf(0.5) - partial) <= 1e-12


def test_criterion_13a_constant_observable_variance_zero():
    """A constant observable has zero variance: every matrix element equals
    the mean, so the estimate is zero to double precision."""
    g = generate_random_regular(10, 4, seed=13)
    mg, a = et_assembly(g, length_seed=13)
    f = constant_observable(g.bond_index, 1.0)
    est = variance_estimate(a, mg, f, 200.0, 50)
    assert est.estimate < 1e-26


@pytest.mark.slow
def test_criterion_13b_family_sweep_trend_and_bounds():
    """Parity observable, kappa=1, d=4, n in {10,20,40,80}, 5 seeds each,
    K=200, 200 samples: mean variance non-increasing in n within 2 combined
    standard errors, and every full-bound row satisfies V <= bound."""
    cfg = qge.ExperimentConfig(
        d=4, n_list=(10, 20, 40, 80), seeds=(1, 2, 3, 4, 5), K=200.0, samples=200
    )
    rows = family_experiment(cfg)
    assert all(r.status == "ok" for r in rows)
    for r in rows:
        if r.bound_kind == "full":
            assert r.variance <= r.bound
    means, ses = [], []
    for n in cfg.n_list:
        sub = [r for r in rows if r.n == n]
        assert len(sub) == 5
        vs = np.array([r.variance for r in sub])
        per_run = np.array([r.stderr for r in sub])
        means.append(float(vs.mean()))
        ses.append(float(np.sqrt(np.var(vs, ddof=1) / len(vs) + np.sum(per_run**2) / len(vs) ** 2)))
    for i in range(len(means) - 1):
        slack = 2.0 * math.hypot(ses[i], ses[i + 1])
        assert means[i + 1] <= means[i] + slack, (
            f"variance trend broken at n={cfg.n_list[i]} -> {cfg.n_list[i + 1]}: "
            f"{means[i]:.3e} -> {means[i + 1]:.3e} (slack {slack:.1e})"
        )
