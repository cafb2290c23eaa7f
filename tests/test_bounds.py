import math

import pytest

from qge import (
    BoundInputs,
    ParameterError,
    WalkBoundUnavailableError,
    WormaldParams,
    choose_horizon,
    explicit_variance_bound,
    fejer,
    fejer_geo_sum,
    weighted_geo_sum,
    weighted_geo_sum_inf,
    wormald_probability,
)

THETA_GRID = [-3.0, -0.5, 0.5, 2.0, 3.0]


def brute_weighted_geo(theta: float, T: int) -> float:
    return math.fsum(t * theta**t for t in range(1, T + 1))


def brute_fejer_geo(theta: float, T: int) -> float:
    w = fejer(T)
    return math.fsum(theta**t * w.weight(t) for t in range(1, T + 1))


class TestSummationLemmas:
    def test_theta2_t3(self):
        assert weighted_geo_sum(2.0, 3) == pytest.approx(34.0, rel=1e-14)
        assert brute_weighted_geo(2.0, 3) == 34.0  # 2 + 8 + 24

    def test_theta_zero(self):
        assert weighted_geo_sum(0.0, 5) == 0.0
        assert fejer_geo_sum(0.0, 5) == 0.0

    def test_infinite_half(self):
        assert weighted_geo_sum_inf(0.5) == pytest.approx(2.0, rel=1e-14)
        # partial sums converge to the closed form
        partial = brute_weighted_geo(0.5, 200)
        assert abs(partial - 2.0) < 1e-12

    @pytest.mark.parametrize("theta", THETA_GRID)
    @pytest.mark.parametrize("T", list(range(1, 21)))
    def test_weighted_geo_matches_brute_force(self, theta, T):
        brute = brute_weighted_geo(theta, T)
        closed = weighted_geo_sum(theta, T)
        assert abs(closed - brute) <= 1e-12 * max(1.0, abs(brute))

    @pytest.mark.parametrize("theta", THETA_GRID)
    @pytest.mark.parametrize("T", list(range(1, 21)))
    def test_fejer_geo_matches_brute_force(self, theta, T):
        brute = brute_fejer_geo(theta, T)
        closed = fejer_geo_sum(theta, T)
        assert abs(closed - brute) <= 1e-12 * max(1.0, abs(brute))

    def test_fejer_geo_theta2_t2(self):
        assert fejer_geo_sum(2.0, 2) == pytest.approx(0.5, rel=1e-14)

    def test_fejer_geo_d_minus_one(self):
        # theta = 3, T = 5: the combination entering the cycle term
        assert fejer_geo_sum(3.0, 5) == pytest.approx(brute_fejer_geo(3.0, 5), rel=1e-12)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            weighted_geo_sum(1.0, 5)
        with pytest.raises(ParameterError):
            fejer_geo_sum(1.0, 5)
        with pytest.raises(ParameterError):
            weighted_geo_sum_inf(1.0)
        with pytest.raises(ParameterError):
            weighted_geo_sum_inf(-2.0)


class TestExplicitVarianceBound:
    def test_hand_assembled_case(self):
        # d=4, beta=1, T=3, kappa=1, B=40, census=10:
        #   diag   = 1/3
        #   walk   = 2 * (15/2) * 3 * 2 / (3 * 1) = 30
        #   cycles = 2 * 27 * 10 / (40 * 9 * 8) = 0.1875
        vb = explicit_variance_bound(
            BoundInputs(kappa=1.0, d=4, beta=1.0, T=3, census=10, B=40)
        )
        assert vb.term_diag == pytest.approx(1 / 3, rel=1e-14)
        assert vb.term_walk == pytest.approx(30.0, rel=1e-14)
        assert vb.term_cycles == pytest.approx(0.1875, rel=1e-14)
        assert vb.total == pytest.approx(1 / 3 + 30.0 + 0.1875, rel=1e-14)
        assert vb.walk_constant == pytest.approx(7.5)

    def test_zero_census_kills_cycle_term(self):
        vb = explicit_variance_bound(
            BoundInputs(kappa=1.0, d=4, beta=1.0, T=3, census=0, B=40)
        )
        assert vb.term_cycles == 0.0

    def test_kappa_scaling(self):
        b1 = explicit_variance_bound(
            BoundInputs(kappa=1.0, d=4, beta=0.7, T=2, census=6, B=40)
        )
        b3 = explicit_variance_bound(
            BoundInputs(kappa=3.0, d=4, beta=0.7, T=2, census=6, B=40)
        )
        for attr in ("term_diag", "term_walk", "term_cycles", "total"):
            assert getattr(b3, attr) == pytest.approx(9.0 * getattr(b1, attr), rel=1e-12)

    def test_monotonicity_probes(self):
        base = BoundInputs(kappa=1.0, d=4, beta=0.8, T=2, census=10, B=40)
        total = explicit_variance_bound(base).total
        more_kappa = explicit_variance_bound(
            BoundInputs(kappa=1.1, d=4, beta=0.8, T=2, census=10, B=40)
        ).total
        more_census = explicit_variance_bound(
            BoundInputs(kappa=1.0, d=4, beta=0.8, T=2, census=11, B=40)
        ).total
        bigger_b = explicit_variance_bound(
            BoundInputs(kappa=1.0, d=4, beta=0.8, T=2, census=10, B=44)
        ).total
        assert more_kappa > total
        assert more_census > total
        assert bigger_b < total

    def test_walk_term_unavailable(self):
        with pytest.raises(WalkBoundUnavailableError):
            explicit_variance_bound(
                BoundInputs(kappa=1.0, d=4, beta=2.5, T=3, census=0, B=40)
            )

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            BoundInputs(kappa=0.0, d=4, beta=1.0, T=3, census=0, B=40)
        with pytest.raises(ParameterError):
            BoundInputs(kappa=1.0, d=4, beta=5.0, T=3, census=0, B=40)
        with pytest.raises(ParameterError):
            BoundInputs(kappa=1.0, d=4, beta=1.0, T=0, census=0, B=40)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kappa", math.nan),
            ("kappa", math.inf),
            ("census", math.nan),
            ("B", math.nan),
            ("d", math.nan),
            ("T", math.inf),
        ],
    )
    def test_non_finite_input_rejected(self, field, value):
        # each of these once reached explicit_variance_bound and gave total = nan
        inputs = dict(kappa=1.0, d=4, beta=1.0, T=3, census=0, B=40)
        inputs[field] = value
        with pytest.raises(ParameterError, match="finite"):
            BoundInputs(**inputs)


class TestChooseHorizon:
    def test_examples(self):
        assert choose_horizon(81, 4) == 1   # 0.3 * log_3(81) = 1.2
        assert choose_horizon(3**10, 4) == 3
        assert choose_horizon(2, 4) == 1    # floor clamp

    def test_growth(self):
        assert choose_horizon(3**20, 4) == 6

    def test_validation(self):
        with pytest.raises(ParameterError):
            choose_horizon(1, 4)


class TestWormald:
    def test_a_equals_e(self):
        p = WormaldParams(n=100, d=4, k=3.0, S=100, A=math.e)
        assert wormald_probability(p) == pytest.approx(math.exp(-5 * 27), rel=1e-12)

    def test_monotone_in_s(self):
        p1 = WormaldParams(n=100, d=4, k=3.0, S=100, A=4.0)
        p2 = WormaldParams(n=100, d=4, k=3.0, S=200, A=4.0)
        assert wormald_probability(p2) < wormald_probability(p1)

    def test_plug_in_near_power_of_three(self):
        # n = 3^5, d = 4: k = (3/5) log_3 n = 3, S_0 = floor(42 n^(3/5) log_3 n),
        # A from S_0 = 12 A n^(3/5) log_3 n; the evaluated bound must not
        # exceed exp(-5 n^(3/5))
        n = 3**5
        log_d1 = 5.0  # log_3(3^5), exact
        k = 0.6 * log_d1
        s0 = math.floor(42 * n**0.6 * log_d1)
        a = s0 / (12 * n**0.6 * log_d1)
        assert 3 < a <= 3.5
        value = wormald_probability(WormaldParams(n=n, d=4, k=k, S=s0, A=a))
        assert value <= math.exp(-5 * n**0.6)

    def test_underflow_is_zero(self):
        p = WormaldParams(n=10**6, d=4, k=12.0, S=10, A=3.0)
        assert wormald_probability(p) == 0.0

    def test_unrepresentable_power_is_zero(self):
        # (d-1)^k = 3^1000 lies beyond the float range
        assert wormald_probability(WormaldParams(n=10, d=4, k=1000.0, S=1, A=2)) == 0.0

    def test_overflow_is_inf(self):
        # (S/(4k))(1 - log A) beyond the float range at A < e: a vacuous bound
        p = WormaldParams(n=10, d=4, k=3.0, S=1e5, A=1.5)
        assert wormald_probability(p) == math.inf

    def test_validation(self):
        with pytest.raises(ParameterError):
            WormaldParams(n=10, d=4, k=2.0, S=10, A=3.0)
        with pytest.raises(ParameterError):
            WormaldParams(n=10, d=4, k=3.0, S=10, A=1.0)
        with pytest.raises(ParameterError, match="S must be >= 0"):
            WormaldParams(n=10, d=4, k=3.0, S=-1.0, A=3.0)

    @pytest.mark.parametrize("field", ["n", "d", "k", "S", "A"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_validation_non_finite(self, field, bad):
        valid = {"n": 10, "d": 4, "k": 3.0, "S": 10, "A": 3.0}
        with pytest.raises(ParameterError, match="must be finite"):
            WormaldParams(**{**valid, field: bad})
