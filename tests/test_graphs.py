import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qge import (
    Graph,
    NumericalError,
    ParameterError,
    ParseError,
    SamplingError,
    ValidationError,
    draw_lengths,
    export_graph,
    generate_random_regular,
    girth,
    import_graph,
    is_ramanujan,
    spectral_report,
)
from qge import graphs
from qge.cli import main

from conftest import cage46, k5, k5_chain, oracle_girth, petersen


class TestGraphInvariants:
    def test_k5_counts(self):
        g = k5()
        assert g.B == 10
        assert 2 * g.B == g.n * g.d

    def test_adjacency_row_sums(self):
        g = petersen()
        c = g.adjacency
        assert np.array_equal(c, c.T)
        assert np.all(np.diag(c) == 0)
        assert np.all(c.sum(axis=1) == g.d)

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop"):
            Graph(n=2, d=2, edges=((0, 0), (0, 1)))

    def test_rejects_repeated_edge(self):
        edges = tuple((u, v) for u in range(5) for v in range(u + 1, 5))
        with pytest.raises(ValidationError, match="repeated"):
            Graph(n=5, d=4, edges=edges[:-1] + (edges[0],))

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValidationError, match="degree"):
            Graph(n=4, d=3, edges=((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))


def loop_validation(n: int, d: int, edges) -> None:
    """The per-edge validation loop that Graph ran on tuple edges, kept as
    the oracle of the array checks."""
    if n <= 0 or d <= 0:
        raise ValidationError("n and d must be positive")
    if (n * d) % 2 != 0:
        raise ValidationError("n*d odd")
    deg = [0] * n
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError("out of range")
        if u == v:
            raise ValidationError("self-loop")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValidationError("repeated")
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
    if any(deg[v] != d for v in range(n)):
        raise ValidationError("degree")
    if 2 * len(edges) != n * d:
        raise ValidationError("edge count")


def accepts(check, n, d, edges) -> bool:
    try:
        check(n=n, d=d, edges=edges)
    except ValidationError:
        return False
    return True


BASES = [k5(), petersen(), cage46(), generate_random_regular(12, 3, seed=4)]
FAULTS = [
    "none", "range", "loop", "repeat", "reversed-repeat", "degree", "drop", "extra", "header-d",
    "swap", "mirror",
]


@st.composite
def planted(draw):
    """A small valid edge list with at most one planted fault, each edge in
    either orientation.  A swap (a, b), (c, e) -> (a, e), (c, b) and a mirror
    (every edge added again, reversed, at degree 2d) keep every degree
    regular, so the loops and repeats they make meet their own check alone."""
    g = draw(st.sampled_from(BASES))
    n, d = g.n, g.d
    edges = [list(e) for e in g.edges.tolist()]
    i = draw(st.integers(0, len(edges) - 1))
    j = draw(st.integers(0, len(edges) - 1).filter(lambda j: j != i))
    side = draw(st.integers(0, 1))
    fault = draw(st.sampled_from(FAULTS))
    if fault == "range":
        edges[i][side] = draw(st.sampled_from([-1, n, n + 7]))
    elif fault == "loop":
        edges[i][side] = edges[i][1 - side]
    elif fault in ("repeat", "reversed-repeat"):
        edges[j] = edges[i][::-1] if fault == "reversed-repeat" else list(edges[i])
    elif fault == "degree":
        edges[i][side] = draw(st.integers(0, n - 1))
    elif fault == "drop":
        del edges[i]
    elif fault == "extra":
        edges.append([draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))])
    elif fault == "header-d":
        d += draw(st.sampled_from([-1, 1]))
    elif fault == "swap":
        edges[i][1], edges[j][1] = edges[j][1], edges[i][1]
    elif fault == "mirror":
        d, edges = 2 * d, edges + [e[::-1] for e in edges]
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, d, [tuple(e[::-1] if f else e) for e, f in zip(edges, flips)]


class TestValidationMatchesLoop:
    @settings(max_examples=400, deadline=None)
    @given(case=planted())
    def test_planted_fault(self, case):
        n, d, edges = case
        assert accepts(Graph, n, d, edges) == accepts(loop_validation, n, d, edges)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 6),
        d=st.integers(1, 4),
        edges=st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), min_size=1, max_size=12),
    )
    def test_random_edge_list(self, n, d, edges):
        assert accepts(Graph, n, d, edges) == accepts(loop_validation, n, d, edges)

    def test_accepted_edges_are_a_frozen_int64_copy(self):
        src = np.array(petersen().edges, dtype=np.int32)
        g = Graph(n=10, d=3, edges=src)
        assert g.edges.dtype == np.int64 and g.edges.shape == (15, 2)
        assert not g.edges.flags.writeable
        src[0] = (9, 9)
        assert g.edges[0].tolist() == [0, 1]

    @pytest.mark.parametrize(
        "edges",
        [
            np.array(k5().edges, dtype=np.float64),
            np.column_stack((k5().edges, np.zeros(10, dtype=np.int64))),
            k5().edges.ravel(),
            [(0, 1), (0, 1, 2)],
        ],
        ids=["float", "B-by-3", "flat", "ragged"],
    )
    def test_not_a_b_by_2_integer_array(self, edges):
        with pytest.raises(ValidationError, match="integer array"):
            Graph(n=5, d=4, edges=edges)


class TestGenerator:
    def test_k4_unique(self):
        # the only simple 3-regular graph on 4 vertices is complete
        g = generate_random_regular(4, 3, seed=123)
        assert frozenset(map(frozenset, g.edges)) == frozenset(
            frozenset((u, v)) for u in range(4) for v in range(u + 1, 4)
        )

    def test_k5_unique(self):
        g = generate_random_regular(5, 4, seed=9)
        assert g.B == 10

    def test_n20_d4(self):
        g = generate_random_regular(20, 4, seed=1)
        assert g.B == 40
        assert np.all(g.adjacency.sum(axis=1) == 4)

    def test_deterministic(self):
        a = generate_random_regular(20, 4, seed=7)
        b = generate_random_regular(20, 4, seed=7)
        assert np.array_equal(a.edges, b.edges)

    def test_seed_dependence(self):
        a = generate_random_regular(30, 4, seed=1)
        b = generate_random_regular(30, 4, seed=2)
        assert not np.array_equal(a.edges, b.edges)

    def test_parity_error(self):
        with pytest.raises(ParameterError):
            generate_random_regular(5, 3, seed=0)

    def test_range_errors(self):
        with pytest.raises(ParameterError):
            generate_random_regular(4, 4, seed=0)
        with pytest.raises(ParameterError):
            generate_random_regular(10, 2, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            generate_random_regular(10, 4, seed=seed)
        with pytest.raises(ParameterError, match="seed"):
            draw_lengths(10, seed=seed)

    def test_rejection_budget(self):
        with pytest.raises(SamplingError):
            generate_random_regular(20, 4, seed=0, max_attempts=0)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([8, 10, 12, 14, 16]),
        d=st.sampled_from([3, 4]),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_generated_graphs_valid(self, n, d, seed):
        if (n * d) % 2:
            n += 1
        g = generate_random_regular(n, d, seed)
        assert np.all(g.adjacency.sum(axis=1) == d)
        assert 2 * g.B == g.n * g.d


class TestImportExport:
    def test_round_trip_k5(self):
        g = k5()
        text = export_graph(g)
        assert text.splitlines()[0] == "5 4"
        g2 = import_graph(text)
        assert np.array_equal(g2.edges, g.edges)

    def test_repeated_edge_rejected(self):
        text = "3 2\n0 1\n0 1\n1 2\n"
        with pytest.raises(ValidationError, match="repeated"):
            import_graph(text)

    def test_degree_violation_rejected(self):
        # header claims d=4 but vertex degrees are 3
        pet = petersen()
        text = "10 4\n" + "\n".join(f"{u} {v}" for u, v in pet.edges) + "\n"
        with pytest.raises(ValidationError):
            import_graph(text)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            import_graph("")
        with pytest.raises(ParseError):
            import_graph("5\n0 1\n")
        with pytest.raises(ParseError):
            import_graph("2 1\n0 x\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ValidationError, match="edges"):
            import_graph("4 3\n0 1\n")


class TestSpectralReport:
    def test_k5(self):
        rep = spectral_report(k5())
        assert rep.mu[0] == pytest.approx(4.0, abs=1e-9)
        assert rep.mu[1:] == pytest.approx((-1.0,) * 4, abs=1e-9)
        assert rep.beta == pytest.approx(3.0, abs=1e-9)
        assert girth(k5()) == 3
        assert rep.is_connected and not rep.is_bipartite

    def test_petersen(self):
        # oracle: eigensolve directly on the hard-coded adjacency
        pet = petersen()
        mu_oracle = np.sort(np.linalg.eigvalsh(pet.adjacency.astype(float)))[::-1]
        rep = spectral_report(pet)
        assert np.allclose(rep.mu, mu_oracle, atol=1e-9)
        # known spectrum: 3 once, 1 five times, -2 four times
        assert rep.mu[0] == pytest.approx(3.0, abs=1e-9)
        assert rep.mu[1:6] == pytest.approx((1.0,) * 5, abs=1e-9)
        assert rep.mu[6:] == pytest.approx((-2.0,) * 4, abs=1e-9)
        assert rep.beta == pytest.approx(1.0, abs=1e-9)
        assert girth(pet) == 5

    def test_cage_bipartite(self):
        rep = spectral_report(cage46())
        assert rep.is_bipartite
        assert girth(cage46()) == 6
        assert rep.mu[-1] == pytest.approx(-4.0, abs=1e-9)

    def test_disconnected_components(self):
        edges = k5().edges
        shifted = tuple((u + 5, v + 5) for u, v in edges)
        g = Graph(n=10, d=4, edges=np.vstack((edges, shifted)))
        rep = spectral_report(g)
        assert not rep.is_connected
        # two +4 eigenvalues, both trivial
        assert rep.mu[0] == pytest.approx(4.0, abs=1e-9)
        assert rep.mu[1] == pytest.approx(4.0, abs=1e-9)
        assert rep.beta == pytest.approx(3.0, abs=1e-9)

    def test_girth_matches_bond_walk_oracle(self):
        for g in [k5(), petersen(), cage46(), k5_chain(4)]:
            assert girth(g) == oracle_girth(g)
        for seed in range(5):
            g = generate_random_regular(24, 4, seed=seed)
            assert girth(g) == oracle_girth(g)
        for d in (3, 5):
            for seed in range(5):
                g = generate_random_regular(16, d, seed=seed)
                assert girth(g) == oracle_girth(g)


def disjoint_union(*parts: Graph) -> Graph:
    edges, base = [], 0
    for g in parts:
        edges.extend((u + base, v + base) for u, v in g.edges)
        base += g.n
    return Graph(n=base, d=parts[0].d, edges=tuple(edges))


def double_cover(g: Graph) -> Graph:
    """Bipartite double cover: vertex v becomes (v, 0) = v and (v, 1) = v + n."""
    edges = [(u, v + g.n) for u, v in g.edges] + [(v, u + g.n) for u, v in g.edges]
    return Graph(n=2 * g.n, d=g.d, edges=tuple(edges))


def dense_report(g: Graph):
    """The report of the dense eigvalsh route, which serves as the oracle."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(graphs, "DENSE_SPECTRUM_MAX_N", g.n)
        return spectral_report(g)


def assert_routes_agree(g: Graph):
    assert g.n > graphs.DENSE_SPECTRUM_MAX_N
    rep, oracle = spectral_report(g), dense_report(g)
    assert rep.mu is None and len(oracle.mu) == g.n
    assert abs(rep.beta - oracle.beta) <= 1e-8
    assert (rep.is_connected, rep.is_bipartite) == (oracle.is_connected, oracle.is_bipartite)
    if rep.is_connected and not rep.is_bipartite:
        assert is_ramanujan(rep) == is_ramanujan(oracle)
    else:
        for r in (rep, oracle):
            with pytest.raises(ValidationError):
                is_ramanujan(r)
    return rep


@pytest.fixture(scope="module")
def g600():
    return generate_random_regular(600, 4, seed=3)


class TestLanczosRoute:
    """Above DENSE_SPECTRUM_MAX_N vertices beta comes from deflated Lanczos;
    the dense eigvalsh route is the oracle."""

    @pytest.mark.parametrize(
        "d, n", [(3, 514), (3, 1200), (4, 513), (4, 1000), (4, 2000), (5, 600), (5, 1500)]
    )
    def test_matches_dense_random(self, d, n):
        for seed in (1, 2):
            assert_routes_agree(generate_random_regular(n, d, seed=seed))

    def test_two_components(self, g600):
        rep = assert_routes_agree(disjoint_union(g600, g600))
        assert not rep.is_connected

    def test_bipartite_double_cover(self, g600):
        rep = assert_routes_agree(double_cover(g600))
        assert rep.is_connected and rep.is_bipartite

    def test_mixed_components(self, g600):
        rep = assert_routes_agree(disjoint_union(g600, double_cover(g600)))
        assert not rep.is_connected and not rep.is_bipartite

    @pytest.mark.parametrize("d, size", [(2, 3), (1, 2)], ids=["triangles", "matching"])
    def test_degenerate_components(self, d, size):
        # 173 disjoint triangles: the deflated spectrum is -1 alone, and
        # Lanczos breaks down at once (beta = 2 - 1); 260 disjoint edges:
        # nothing is left after deflation, and beta = d = 1
        cell = Graph(n=size, d=d, edges=tuple((u, v) for u in range(size) for v in range(u + 1, size)))
        rep = assert_routes_agree(disjoint_union(*[cell] * (520 // size)))
        assert rep.beta == pytest.approx(1.0, abs=1e-12)

    def test_tiny_gap_chain(self):
        rep = assert_routes_agree(k5_chain(103))
        assert rep.beta < 1e-3

    def test_route_threshold(self):
        at = generate_random_regular(graphs.DENSE_SPECTRUM_MAX_N, 4, seed=1)
        above = generate_random_regular(graphs.DENSE_SPECTRUM_MAX_N + 1, 4, seed=1)
        assert len(spectral_report(at).mu) == at.n
        assert spectral_report(above).mu is None

    @pytest.mark.parametrize("drop", ["bipartite", "component"])
    def test_undeflated_structure_rejected(self, g600, monkeypatch, drop):
        # a traversal that misses a structural vector leaves an eigenvalue
        # -d or d in the deflated operator, which the route must reject
        g = double_cover(g600) if drop == "bipartite" else disjoint_union(g600, g600)
        real = graphs._components

        def wrong(g):
            label, color, flags = real(g)
            if drop == "bipartite":
                return label, color, [False] * len(flags)
            return np.zeros_like(label), color, [False]

        monkeypatch.setattr(graphs, "_components", wrong)
        with pytest.raises(ValidationError, match="within"):
            spectral_report(g)

    def test_large_graph_memory(self):
        # a dense route would need a 3.2 GB adjacency matrix
        g = generate_random_regular(20000, 4, seed=5)
        tracemalloc.start()
        try:
            rep = spectral_report(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert rep.mu is None
        assert np.isfinite(rep.beta) and 0.0 < rep.beta < g.d

    def test_non_convergence_is_numerical_error(self, g600, monkeypatch, tmp_path, capsys):
        real = graphs._lanczos_extremes
        monkeypatch.setattr(
            graphs, "_lanczos_extremes", lambda *args, max_steps: real(*args, max_steps=20)
        )
        with pytest.raises(NumericalError, match="20 steps"):
            spectral_report(g600)
        path = tmp_path / "g.txt"
        path.write_text(export_graph(g600))
        out = tmp_path / "info.json"
        assert main(["graph", "info", str(path), "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "NumericalError"
        assert not out.exists()

    def test_cli_info_above_threshold(self, g600, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(export_graph(g600))
        out = tmp_path / "info.json"
        assert main(["graph", "info", str(path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["mu"] is None
        assert payload["is_connected"] and not payload["is_bipartite"]
        # oracle: connected and not bipartite, so only the top eigenvalue is trivial
        mu = np.linalg.eigvalsh(g600.adjacency.astype(float))
        assert abs(payload["beta"] - (4 - np.max(np.abs(mu[:-1])))) <= 1e-8


class TestRamanujan:
    def test_k5_true(self):
        assert is_ramanujan(spectral_report(k5())) is True

    def test_petersen_true(self):
        # non-trivial |mu| <= 2 <= 2 sqrt(2)
        assert is_ramanujan(spectral_report(petersen())) is True

    def test_gadget_chain_false(self):
        # long chain of K5 gadgets imported from text: tiny measured gap
        g = import_graph(export_graph(k5_chain(6)))
        rep = spectral_report(g)
        assert rep.beta < 0.2
        assert is_ramanujan(rep) is False
        # oracle: direct eigensolve comparison against the threshold
        mu = np.sort(np.linalg.eigvalsh(g.adjacency.astype(float)))[::-1]
        assert np.max(np.abs(mu[1:])) > 2 * np.sqrt(3) + 1e-9

    def test_bipartite_rejected(self):
        with pytest.raises(ValidationError):
            is_ramanujan(spectral_report(cage46()))

    def test_disconnected_rejected(self):
        edges = k5().edges
        shifted = tuple((u + 5, v + 5) for u, v in edges)
        rep = spectral_report(Graph(n=10, d=4, edges=np.vstack((edges, shifted))))
        with pytest.raises(ValidationError):
            is_ramanujan(rep)


def test_bond_index_involution():
    bi = petersen().bond_index
    for b in range(bi.num_directed):
        assert bi.rev[bi.rev[b]] == b
        assert bi.rev[b] != b
        assert bi.heads[b] == bi.tails[bi.rev[b]]


@pytest.mark.parametrize("make", [k5, petersen, cage46], ids=lambda f: f.__name__)
def test_bond_index_in_bonds_reverse_out_bonds(make):
    g = make()
    bi = g.bond_index
    for v in range(g.n):
        # out_bonds: bonds leaving v by increasing head; in_bonds: bonds
        # entering v by increasing tail, found here by a plain scan
        bonds = range(bi.num_directed)
        leaving = sorted((int(bi.heads[b]), b) for b in bonds if bi.tails[b] == v)
        entering = sorted((int(bi.tails[b]), b) for b in bonds if bi.heads[b] == v)
        assert bi.out_bonds[v].tolist() == [b for _, b in leaving]
        assert bi.in_bonds[v].tolist() == [b for _, b in entering]
        assert g.neighbors[v] == tuple(w for w, _ in leaving)
    assert np.array_equal(bi.in_bonds, bi.rev[bi.out_bonds])
