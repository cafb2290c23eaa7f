"""Integer parameters: every count, degree, horizon and seed of the public
API goes through qge._checks.integer, which takes an int, a numpy integer
or an integral finite float and refuses anything else with ParameterError."""

import dataclasses
import math

import numpy as np
import pytest

from qge import (
    BoundInputs,
    Graph,
    MetricGraph,
    ParameterError,
    WormaldParams,
    build_assembly,
    census_report,
    choose_horizon,
    classical_map,
    cycle_bond_census,
    decay_profile,
    draw_lengths,
    equi_transmitting_sigma,
    fejer,
    fejer_geo_sum,
    fejer_kernel,
    generate_random_regular,
    kirchhoff_sigma,
    lemma_a_sides,
    lemma_sides,
    m_tilde,
    near_cycle_census,
    parity_observable,
    reduced_consistency,
    spectral_report,
    trace_correlator,
    variance_estimate,
    walk_decay_constant,
    weighted_geo_sum,
    y_from_z,
    z_bound,
    z_closed_form,
    z_sequence,
)
from qge._checks import integer
from qge.census import min_return_lengths
from qge.evolution import FejerWeights, evolution

from conftest import k5, petersen


class TestInteger:
    @pytest.mark.parametrize("value", [4, np.int64(4), np.uint8(4), 4.0, np.float32(4.0)])
    def test_accepts_integers_and_integral_floats(self, value):
        got = integer(value, 1, "count")
        assert type(got) is int and got == 4

    @pytest.mark.parametrize(
        "value", [True, np.bool_(True), 2.5, math.nan, math.inf, -math.inf, "4", None, 4 + 0j],
        ids=repr,
    )
    def test_refuses_what_is_not_an_integer(self, value):
        with pytest.raises(ParameterError, match="count="):
            integer(value, 0, "count")

    def test_least_is_inclusive(self):
        assert integer(0, 0, "t") == 0
        assert integer(-3, -3, "offset") == -3
        with pytest.raises(ParameterError):
            integer(2, 3, "d")

    def test_messages(self):
        with pytest.raises(ParameterError, match=r"^window T=2\.5 must be a positive integer$"):
            integer(2.5, 1, "window T")
        with pytest.raises(ParameterError, match=r"^seed=-1 must be an integer >= 0$"):
            integer(-1, 0, "seed")
        with pytest.raises(ParameterError, match=r"^degree d=True must be an integer >= 3$"):
            integer(True, 3, "degree d")


@pytest.fixture(scope="module")
def inputs():
    """The K5 metric graph with the equi-transmitting rule, its walk, the
    parity observable, a dense U(k) and the Petersen graph."""
    g = k5()
    mg = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=11))
    s = build_assembly(mg, equi_transmitting_sigma(4))
    f = parity_observable(g.bond_index)
    u = evolution(s, mg, 1.3)
    return {"g": g, "mg": mg, "s": s, "m": classical_map(s), "f": f, "u": u, "pet": petersen()}


# name -> (call of the inputs and the value, a valid value, least); every
# public function with an integer parameter, once per such parameter
CASES = {
    "weighted_geo_sum.T": (lambda x, v: weighted_geo_sum(0.5, v), 4, 1),
    "fejer_geo_sum.T": (lambda x, v: fejer_geo_sum(0.5, v), 4, 1),
    "BoundInputs.d": (lambda x, v: BoundInputs(kappa=1.0, d=v, beta=0.5, T=2, census=4, B=20), 4, 3),
    "BoundInputs.T": (lambda x, v: BoundInputs(kappa=1.0, d=4, beta=0.5, T=v, census=4, B=20), 2, 1),
    "BoundInputs.census": (
        lambda x, v: BoundInputs(kappa=1.0, d=4, beta=0.5, T=2, census=v, B=20), 4, 0
    ),
    "BoundInputs.B": (lambda x, v: BoundInputs(kappa=1.0, d=4, beta=0.5, T=2, census=4, B=v), 20, 1),
    "choose_horizon.n": (lambda x, v: choose_horizon(v, 4), 100, 2),
    "choose_horizon.d": (lambda x, v: choose_horizon(100, v), 4, 3),
    "WormaldParams.n": (lambda x, v: WormaldParams(n=v, d=4, k=3.0, S=10.0, A=2.0), 10, 1),
    "WormaldParams.d": (lambda x, v: WormaldParams(n=10, d=v, k=3.0, S=10.0, A=2.0), 4, 3),
    "min_return_lengths.cap": (lambda x, v: min_return_lengths(x["pet"].bond_index, v), 6, 0),
    "cycle_bond_census.t": (lambda x, v: cycle_bond_census(x["pet"], v), 5, 3),
    "near_cycle_census.t": (lambda x, v: near_cycle_census(x["pet"], v), 3, 2),
    "census_report.t": (lambda x, v: census_report(x["pet"], v), 3, 2),
    "lemma_sides.t": (lambda x, v: lemma_sides(x["pet"], v), 3, 2),
    "draw_lengths.b": (lambda x, v: draw_lengths(v, 7), 5, 0),
    "draw_lengths.seed": (lambda x, v: draw_lengths(5, v), 7, 0),
    "variance_estimate.samples": (
        lambda x, v: variance_estimate(x["s"], x["mg"], x["f"], 10.0, v), 3, 1
    ),
    "m_tilde.t": (lambda x, v: m_tilde(x["s"], x["mg"], v, 10.0, 3), 2, 0),
    "m_tilde.samples": (lambda x, v: m_tilde(x["s"], x["mg"], 2, 10.0, v), 3, 1),
    "trace_correlator.t": (lambda x, v: trace_correlator(x["s"], x["mg"], x["f"], v, 1.3), 2, 0),
    "FejerWeights.T": (lambda x, v: FejerWeights(v), 4, 1),
    "fejer.T": (lambda x, v: fejer(v), 4, 1),
    "fejer_kernel.T": (lambda x, v: fejer_kernel(v, 0.3), 4, 1),
    "lemma_a_sides.T": (lambda x, v: lemma_a_sides(x["u"], np.diag(x["f"].f), v), 3, 1),
    "Graph.n": (lambda x, v: Graph(n=v, d=4, edges=x["g"].edges), 5, 1),
    "Graph.d": (lambda x, v: Graph(n=5, d=v, edges=x["g"].edges), 4, 1),
    "generate_random_regular.n": (lambda x, v: generate_random_regular(v, 4, 1), 10, 5),
    "generate_random_regular.d": (lambda x, v: generate_random_regular(10, v, 1), 4, 3),
    "generate_random_regular.seed": (lambda x, v: generate_random_regular(10, 4, v), 1, 0),
    "kirchhoff_sigma.d": (lambda x, v: kirchhoff_sigma(v), 4, 2),
    "equi_transmitting_sigma.d": (lambda x, v: equi_transmitting_sigma(v), 4, 2),
    "reduced_consistency.t": (
        lambda x, v: reduced_consistency(x["g"], x["m"], np.arange(5.0), v), 3, 0
    ),
    "z_sequence.d": (lambda x, v: z_sequence(0.5, v, 5), 4, 3),
    "z_sequence.T": (lambda x, v: z_sequence(0.5, 4, v), 5, 0),
    "z_closed_form.d": (lambda x, v: z_closed_form(0.5, v, 5), 4, 3),
    "z_closed_form.T": (lambda x, v: z_closed_form(0.5, 4, v), 5, 0),
    "z_bound.d": (lambda x, v: z_bound(v, 0.5, 3), 4, 3),
    "z_bound.T": (lambda x, v: z_bound(4, 0.5, v), 5, 0),
    "y_from_z.d": (lambda x, v: y_from_z(np.arange(4.0), v), 4, 3),
    "walk_decay_constant.d": (lambda x, v: walk_decay_constant(v, 0.5), 4, 3),
    "decay_profile.T": (lambda x, v: decay_profile(x["m"], x["f"], v, spectral_report(x["g"])), 3, 1),
}


def _canon(x):
    """A comparable form of a result that keeps the types of its scalars, so
    that a stored 4.0 differs from a stored 4."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, repr(x.tolist()))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, tuple((f.name, _canon(getattr(x, f.name))) for f in dataclasses.fields(x)))
    if isinstance(x, (list, tuple)):
        return tuple(_canon(v) for v in x)
    return (type(x).__name__, repr(x))


@pytest.mark.parametrize("case", CASES)
def test_refuses_a_bad_integer(inputs, case):
    call, good, least = CASES[case]
    for bad in (2.5, 1.5, math.nan, True, least - 1, least + 0.5, good + 0.5):
        with pytest.raises(ParameterError):
            call(inputs, bad)


@pytest.mark.parametrize("case", CASES)
def test_integral_float_and_numpy_integer_act_as_the_int(inputs, case):
    call, good, _ = CASES[case]
    expected = _canon(call(inputs, good))
    assert _canon(call(inputs, float(good))) == expected
    assert _canon(call(inputs, np.int64(good))) == expected


def test_variance_estimate_records_the_int(inputs):
    est = variance_estimate(inputs["s"], inputs["mg"], inputs["f"], 10.0, 3.0)
    assert type(est.samples) is int and est.samples == 3


# the walk bound's gate and envelope refuse a beta that is not finite, which
# once gave a nan constant or nan envelope entries
@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize(
    "call",
    [lambda beta: walk_decay_constant(4, beta), lambda beta: z_bound(4, beta, 3)],
    ids=["walk_decay_constant", "z_bound"],
)
def test_walk_bound_refuses_a_non_finite_beta(call, beta):
    with pytest.raises(ParameterError, match="beta=.* must be finite"):
        call(beta)
