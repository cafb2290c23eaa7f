import ctypes
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
from qge import _runtime, graphs
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

    @pytest.mark.parametrize("n, d", [(0, 3), (4, 0), (-2, 4)])
    def test_rejects_empty_vertex_set_or_degree(self, n, d):
        # without the check, n = 0 or d = 0 with no edges would pass every
        # other test of the graph
        with pytest.raises(ValidationError, match="must be a positive integer"):
            Graph(n=n, d=d, edges=np.zeros((0, 2), dtype=np.int64))


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

    def test_rejection_budget(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_ATTEMPTS", 0)
        with pytest.raises(SamplingError):
            generate_random_regular(20, 4, seed=0)

    def test_rejection_budget_spent_on_draws(self, monkeypatch):
        # a budget the up-front check lets through, spent without a simple pairing
        monkeypatch.setattr(graphs, "MAX_ATTEMPTS", 2)
        monkeypatch.setattr(graphs, "HOPELESS_FACTOR", 10**6)
        with pytest.raises(SamplingError, match="no simple pairing found in 2 attempts"):
            generate_random_regular(20, 4, seed=0)

    @pytest.mark.parametrize("d, draws", [(7, True), (8, False), (100, False)])
    def test_hopeless_degree_fails_before_drawing(self, monkeypatch, d, draws):
        # exp((d^2 - 1) / 4) expected draws: 1.6 x MAX_ATTEMPTS at d = 7,
        # 69 x at d = 8; d = 100 would overflow a float
        class Drawn(Exception):
            pass

        class Rng:
            def permutation(self, stubs):
                raise Drawn

        monkeypatch.setattr(graphs, "_rng", lambda seed: Rng())
        with pytest.raises(Drawn if draws else SamplingError):
            generate_random_regular(100_000, d, seed=1)

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

    @pytest.mark.parametrize(
        "flags, match",
        [([False, False], "multiplicity of d"), ([True], "-d multiplicity")],
        ids=["components", "bipartite"],
    )
    def test_dense_multiplicities_cross_check_the_traversal(self, monkeypatch, flags, match):
        # a traversal that miscounts the components or the bipartite ones of
        # the (connected, non-bipartite) Petersen graph fails the dense route
        real = graphs._components

        def wrong(g):
            label, color, _ = real(g)
            return label, color, flags

        monkeypatch.setattr(graphs, "_components", wrong)
        with pytest.raises(ValidationError, match=match):
            spectral_report(petersen())

    @pytest.mark.skipif(_runtime.openblas_threads() is None, reason="no OpenBLAS thread setter found")
    def test_dense_route_at_one_blas_thread(self):
        # the dense eigvalsh at n = 512 gave other last bits at two BLAS
        # threads than at one; it runs at one whatever the count, which is
        # restored after
        set_threads, get_threads = _runtime.openblas_threads()
        g = generate_random_regular(graphs.DENSE_SPECTRUM_MAX_N, 4, seed=1)
        old, reports = get_threads(), []
        try:
            for threads in (1, 2):
                set_threads(threads)
                reports.append(spectral_report(g))
                assert get_threads() == threads
        finally:
            set_threads(old)
        assert reports[0].mu == reports[1].mu and reports[0].beta == reports[1].beta

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


def full_bfs_girth(g: Graph) -> int | None:
    """girth without its stop at the first triangle: a BFS from every
    vertex, cut only where no shorter cycle can follow."""
    best = None
    nbr = g.neighbors
    for root in range(g.n):
        dist, parent = {root: 0}, {root: -1}
        queue = [root]
        for u in queue:
            if best is not None and 2 * dist[u] >= best:
                break
            for v in nbr[u]:
                if v not in dist:
                    dist[v], parent[v] = dist[u] + 1, u
                    queue.append(v)
                elif v != parent[u]:
                    cand = dist[u] + dist[v] + 1
                    best = cand if best is None else min(best, cand)
    return best


def cube() -> Graph:
    """The 3-cube Q3: 3-regular, 8 vertices, girth 4."""
    edges = tuple((u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit)
    return Graph(n=8, d=3, edges=edges)


class TestGirth:
    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: Graph(n=4, d=3, edges=[(u, v) for u in range(4) for v in range(u + 1, 4)]), 3),
            (cube, 4),
            (petersen, 5),
            (cage46, 6),
        ],
        ids=["k4", "q3", "petersen", "cage46"],
    )
    def test_known_girths(self, make, expected):
        g = make()
        assert girth(g) == expected
        assert full_bfs_girth(g) == expected

    @pytest.mark.parametrize("n, d", [(12, 3), (40, 3), (200, 3), (30, 4), (300, 4), (24, 5)])
    def test_matches_full_search_on_random_graphs(self, n, d):
        for seed in range(4):
            g = generate_random_regular(n, d, seed=seed)
            assert girth(g) == full_bfs_girth(g)

    def test_stops_at_the_first_triangle(self):
        # from root 0 of K5, vertex 1's edge to vertex 2 closes a triangle:
        # no other vertex's neighbours are read and no other root is searched
        g = k5()
        reads = []

        class Spy(tuple):
            def __getitem__(self, u):
                reads.append(u)
                return super().__getitem__(u)

        g.__dict__["neighbors"] = Spy(g.neighbors)
        assert girth(g) == 3
        assert reads == [0, 1]


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


needs_dstemr = pytest.mark.skipif(_runtime.lapacke_dstemr() is None, reason="no dstemr found")

# beta's bits on the seed's pinned graphs: where every Lanczos check takes
# the dense eigh of T_j, and where it takes dstemr
BETA_BITS = {
    "random-d3-n514-s1": ("0x1.6cfa5a4764200p-3", "0x1.6cfa5a4764230p-3"),
    "random-d3-n514-s2": ("0x1.4ba0cb1b78490p-3", "0x1.4ba0cb1b78490p-3"),
    "random-d3-n1200-s1": ("0x1.58e70d600e0d0p-3", "0x1.58e70d600e0f0p-3"),
    "random-d3-n1200-s2": ("0x1.6b1e8d73983e0p-3", "0x1.6b1e8d73983d0p-3"),
    "random-d4-n513-s1": ("0x1.11a107ca65becp-1", "0x1.11a107ca65bf8p-1"),
    "random-d4-n513-s2": ("0x1.1412562e88f44p-1", "0x1.1412562e88f48p-1"),
    "random-d4-n1000-s1": ("0x1.19793862620dcp-1", "0x1.19793862620e0p-1"),
    "random-d4-n1000-s2": ("0x1.157da0d8b56b8p-1", "0x1.157da0d8b56b0p-1"),
    "random-d4-n2000-s1": ("0x1.1510d849e8e68p-1", "0x1.1510d849e8e64p-1"),
    "random-d4-n2000-s2": ("0x1.130e1dce6cf48p-1", "0x1.130e1dce6cf48p-1"),
    "random-d5-n600-s1": ("0x1.08385eed9325ep+0", "0x1.08385eed9325cp+0"),
    "random-d5-n600-s2": ("0x1.0196d3fb8fcfcp+0", "0x1.0196d3fb8fcf8p+0"),
    "random-d5-n1500-s1": ("0x1.01aa373b593d4p+0", "0x1.01aa373b593d8p+0"),
    "random-d5-n1500-s2": ("0x1.fe10233b556e0p-1", "0x1.fe10233b556d8p-1"),
    "two-components": ("0x1.187b9cfd3ddccp-1", "0x1.187b9cfd3ddc8p-1"),
    "double-cover": ("0x1.187b9cfd3ddc4p-1", "0x1.187b9cfd3ddc8p-1"),
    "mixed": ("0x1.187b9cfd3ddc4p-1", "0x1.187b9cfd3ddc8p-1"),
    "k5-chain": ("0x1.16b3b21c3a000p-12", "0x1.16b3b21c38000p-12"),
}


def pinned_graph(name: str, g600: Graph) -> Graph:
    if name.startswith("random"):
        d, n, seed = (int(part[1:]) for part in name.split("-")[1:])
        return generate_random_regular(n, d, seed=seed)
    return {
        "two-components": lambda: disjoint_union(g600, g600),
        "double-cover": lambda: double_cover(g600),
        "mixed": lambda: disjoint_union(g600, double_cover(g600)),
        "k5-chain": lambda: k5_chain(103),
    }[name]()


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

    @pytest.mark.parametrize("name, beta_hex", [(k, bits[0]) for k, bits in BETA_BITS.items()])
    def test_beta_bits_pinned(self, g600, name, beta_hex, monkeypatch):
        # the adjacency gather adds the d neighbour rows left to right; these
        # bits pin that order, so a change to it cannot shift beta unnoticed.
        # Here every check takes the dense eigh of T_j, the route of a
        # platform without dstemr
        monkeypatch.setattr(_runtime, "lapacke_dstemr", lambda: None)
        assert spectral_report(pinned_graph(name, g600)).beta.hex() == beta_hex

    @needs_dstemr
    @pytest.mark.parametrize("name, beta_hex", [(k, bits[1]) for k, bits in BETA_BITS.items()])
    def test_beta_bits_pinned_dstemr(self, g600, name, beta_hex):
        # the same pin on the route every check takes where dstemr is found
        assert spectral_report(pinned_graph(name, g600)).beta.hex() == beta_hex

    @needs_dstemr
    @pytest.mark.parametrize("name", list(BETA_BITS))
    def test_dense_checks_agree(self, g600, name, monkeypatch):
        g = pinned_graph(name, g600)
        beta = spectral_report(g).beta
        monkeypatch.setattr(_runtime, "lapacke_dstemr", lambda: None)
        assert abs(spectral_report(g).beta - beta) <= 1e-14

    @needs_dstemr
    @pytest.mark.parametrize("n, d, seed", [(1000, 4, 1), (1500, 5, 2), (1200, 3, 1)])
    def test_no_dense_eigh_when_dstemr_found(self, n, d, seed, monkeypatch):
        # every check comes from dstemr, and the pair returned passes
        # Paige's test on dstemr's own vectors
        def no_eigh(*args, **kwargs):
            raise AssertionError("dense eigh called")

        checks, extremes = [], _runtime.tridiagonal_extremes

        def spy(alphas, betas):
            pairs = extremes(alphas, betas)
            checks.append((betas[-1], pairs))
            return pairs

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        monkeypatch.setattr(_runtime, "tridiagonal_extremes", spy)
        rep = spectral_report(generate_random_regular(n, d, seed=seed))
        assert len(checks) >= 2 and all(pairs is not None for _, pairs in checks)
        beta_j, ((lo, s_lo), (hi, s_hi)) = checks[-1]
        assert beta_j * max(abs(s_lo), abs(s_hi)) < graphs.LANCZOS_TOL
        assert rep.beta == d - max(-lo, hi)
        for beta_j, ((_, s_lo), (_, s_hi)) in checks[:-1]:
            assert beta_j * max(abs(s_lo), abs(s_hi)) >= graphs.LANCZOS_TOL

    @needs_dstemr
    def test_failed_call_falls_back_for_that_check(self, monkeypatch):
        # the first dstemr call reports info = -1: that check alone takes
        # the dense eigh, and every later one dstemr again
        dstemr, calls, eighs = _runtime.lapacke_dstemr(), [], []
        real_eigh = np.linalg.eigh

        def failing_first(*args):
            calls.append(args[3])
            return -1 if len(calls) == 1 else dstemr(*args)

        def counted_eigh(a):
            eighs.append(len(a))
            return real_eigh(a)

        g = generate_random_regular(1000, 4, seed=1)
        beta = spectral_report(g).beta
        monkeypatch.setattr(_runtime, "lapacke_dstemr", lambda: failing_first)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        assert spectral_report(g).beta == beta
        assert eighs == [graphs.LANCZOS_FIRST_CHECK]
        assert len(calls) > 3 and calls[0] == graphs.LANCZOS_FIRST_CHECK

    @pytest.mark.skipif(_runtime.openblas_threads() is None, reason="no OpenBLAS thread setter found")
    def test_dense_checks_at_one_blas_thread(self, monkeypatch):
        # without dstemr every check takes a dense eigh of T_j; each runs at
        # one BLAS thread, and the caller's count is restored after
        set_threads, get_threads = _runtime.openblas_threads()
        seen, real_eigh = [], np.linalg.eigh

        def counted_eigh(a):
            seen.append(get_threads())
            return real_eigh(a)

        monkeypatch.setattr(_runtime, "lapacke_dstemr", lambda: None)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        g = generate_random_regular(1000, 4, seed=1)
        old = get_threads()
        try:
            set_threads(3)
            spectral_report(g)
            assert get_threads() == 3
        finally:
            set_threads(old)
        assert len(seen) >= 2 and set(seen) == {1}

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


def tridiagonal_cases():
    """(name, d, e), with the name as id, for random tridiagonals at each size, one with a zero
    off-diagonal (a split), one with tiny off-diagonals, and one whose top
    pair is nearly double."""
    rng = np.random.default_rng(28)
    cases = []
    for j in (1, 2, 30, 187, 600):
        d, e = rng.standard_normal(j), rng.standard_normal(j - 1)
        cases.append(pytest.param(f"random-{j}", d, e, id=f"random-{j}"))
        if j >= 30:
            split = e.copy()
            split[j // 2] = 0.0
            cases.append(pytest.param(f"split-{j}", d, split, id=f"split-{j}"))
            cases.append(pytest.param(f"tiny-{j}", d, 1e-13 * e, id=f"tiny-{j}"))
    # two copies of a block joined by a 1e-9 coupling: each extreme comes
    # as a pair 1e-9 apart
    d, e = rng.standard_normal(40), rng.standard_normal(39)
    pair = np.concatenate((d, d)), np.concatenate((e, [1e-9], e))
    cases.append(pytest.param("near-double", *pair, id="near-double"))
    return cases


@needs_dstemr
class TestTridiagonalExtremes:
    """_runtime.tridiagonal_extremes (dstemr) against the dense eigh of the
    same tridiagonal, its oracle."""

    @pytest.mark.parametrize("name, d, e", tridiagonal_cases())
    def test_matches_eigh(self, name, d, e):
        j = len(d)
        theta, s = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        pairs = _runtime.tridiagonal_extremes(d, e)
        scale = max(1.0, float(np.max(np.abs(theta))))
        for (value, last), i in zip(pairs, (0, j - 1)):
            assert abs(value - theta[i]) <= 1e-13 * scale
            # the last entry of a unit eigenvector; within a cluster only
            # the cluster's share of e_j is determined
            cluster = np.abs(theta - theta[i]) <= 1e-6 * scale
            if cluster.sum() == 1:
                assert abs(abs(last) - abs(s[-1, i])) <= 1e-10
            else:
                assert abs(last) <= np.linalg.norm(s[-1, cluster]) + 1e-10
        assert name != "near-double" or np.sum(np.abs(theta - theta[-1]) <= 1e-8) == 2

    def test_inputs_kept(self):
        # dstemr overwrites d and e: the wrapper hands it copies
        d, e = [2.0, 1.0, 3.0], [0.5, 0.25, 7.0]
        _runtime.tridiagonal_extremes(d, e)
        assert (d, e) == ([2.0, 1.0, 3.0], [0.5, 0.25, 7.0])

    @pytest.mark.parametrize("fault", ["info", "count"])
    def test_failed_call_gives_none(self, fault, monkeypatch):
        dstemr = _runtime.lapacke_dstemr()

        def faulty(*args):
            if fault == "info":
                return 3
            info = dstemr(*args)
            ctypes.c_int64.from_address(args[10]).value = 2  # m: two eigenpairs, not one
            return info

        monkeypatch.setattr(_runtime, "lapacke_dstemr", lambda: faulty)
        assert _runtime.tridiagonal_extremes(np.ones(4), np.ones(3)) is None

    def test_none_without_routine(self, monkeypatch):
        monkeypatch.setattr(_runtime, "lapacke_dstemr", lambda: None)
        assert _runtime.tridiagonal_extremes(np.ones(4), np.ones(3)) is None


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
