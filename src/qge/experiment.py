"""Family sweep: variance estimates against the explicit bound over a
sequence of random regular graphs.

Each (n, seed) pair becomes one row: draw a uniform simple d-regular graph,
seeded bond lengths, the equi-transmitting assembly, the deterministic
vertex-parity observable, then estimate the quantum variance and assemble
the explicit bound at horizon T(n).  Failed rows are marked, never dropped.
The rows run in order; each row's k-samples run on the pool of
qge._runtime.thread_map (see family_experiment).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import _runtime
from ._checks import integer
from .bounds import BoundInputs, choose_horizon, explicit_variance_bound
from .census import cycle_bond_census
from .errors import ParseError, QgeError, ValidationError, WalkBoundUnavailableError
from .evolution import (
    MetricGraph,
    build_assembly,
    draw_lengths,
    parity_observable,
    variance_estimate,
)
from .graphs import generate_random_regular, girth, spectral_report
from .scattering import equi_transmitting_sigma

__all__ = ["ExperimentConfig", "ExperimentRow", "family_experiment", "parse_config"]

LENGTH_SEED_OFFSET = 1_000_003  # decorrelates length draws from graph sampling
# a row draws its graph at seed and its lengths at seed + LENGTH_SEED_OFFSET,
# and both must lie in [0, 2^64)
MAX_SEED = 2**64 - 1 - LENGTH_SEED_OFFSET


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep's parameters, checked when built: ParseError for an empty n_list or
    seeds, ValidationError (or the d's construction error) for a value it cannot
    run.  d, each n, samples and each seed go through _checks.integer, which
    raises ParameterError, and are stored as ints."""

    d: int
    n_list: tuple[int, ...]
    seeds: tuple[int, ...]
    K: float = 200.0
    samples: int = 200
    kappa: float = 1.0
    output: str = "experiment.csv"

    def __post_init__(self):
        if not self.n_list or not self.seeds:
            raise ParseError("n_list and seeds must be non-empty")
        d = integer(self.d, 3, "config d")
        equi_transmitting_sigma(d)  # raises for a d with no construction
        n_list = tuple(integer(n, d + 1, "config n_list") for n in self.n_list)
        samples = integer(self.samples, 1, "config samples")
        seeds = tuple(integer(s, 0, "config seeds") for s in self.seeds)
        if any(s > MAX_SEED for s in seeds):
            raise ValidationError(f"config seeds must lie in [0, {MAX_SEED}]")
        if not (0.0 < self.K < math.inf and 0.0 < self.kappa < math.inf):
            raise ValidationError(
                f"config K={self.K} and kappa={self.kappa} must be finite and positive"
            )
        for name, value in (("d", d), ("n_list", n_list), ("samples", samples), ("seeds", seeds)):
            object.__setattr__(self, name, value)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


# the config keys are the ExperimentConfig fields, each value read by the
# parser of its field's type; a field without a default is a required key
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_PARSERS = {"int": int, "float": float, "str": str, "tuple[int, ...]": _int_list}
CONFIG_KEYS = tuple(_FIELDS)
_REQUIRED = {name for name, f in _FIELDS.items() if f.default is MISSING}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key=value config format (keys: CONFIG_KEYS, each at most
    once; lists comma-separated; an absent optional key takes its
    ExperimentConfig default).  An unknown, repeated or missing key
    raises ParseError; ExperimentConfig checks the values.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ParseError(f"config line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ParseError(f"config line {lineno}: key {key!r} given twice")
        entries[key] = value.strip()
    missing = _REQUIRED - entries.keys()
    if missing:
        raise ParseError(f"config missing keys: {sorted(missing)}")
    try:
        values = {k: _PARSERS[_FIELDS[k].type](v) for k, v in entries.items()}
    except ValueError as exc:
        raise ParseError(f"config value malformed: {exc}") from exc
    return ExperimentConfig(**values)


@dataclass(frozen=True, kw_only=True)
class ExperimentRow:
    """One sweep row; the fields before bound_terms are the CSV columns,
    in order."""

    n: int
    B: int = 0
    beta: float = float("nan")
    girth: int | None = None
    census_2T: int = 0
    T: int = 0
    variance: float = float("nan")
    bound: float = float("nan")
    seed: int
    stderr: float = float("nan")
    bound_kind: str = "none"
    status: str = "ok"
    bound_terms: dict = field(default_factory=dict)

    def csv_values(self) -> list:
        """The row in EXPERIMENT_COLUMNS order; the girth cell of an acyclic
        graph reads "acyclic", and a failed row, which never measured its
        graph, leaves it empty."""
        girth = "" if self.status != "ok" else "acyclic" if self.girth is None else self.girth
        return [girth if name == "girth" else getattr(self, name) for name in EXPERIMENT_COLUMNS]


EXPERIMENT_COLUMNS = [f.name for f in fields(ExperimentRow)[:-1]]


def _one_row(cfg: ExperimentConfig, n: int, seed: int) -> ExperimentRow:
    g = generate_random_regular(n, cfg.d, seed)
    lengths = draw_lengths(g.B, seed + LENGTH_SEED_OFFSET)
    mg = MetricGraph(graph=g, lengths=lengths)
    assembly = build_assembly(mg, equi_transmitting_sigma(cfg.d))
    f = parity_observable(g.bond_index, cfg.kappa)
    est = variance_estimate(assembly, mg, f, cfg.K, cfg.samples)

    report = spectral_report(g)
    horizon = choose_horizon(n, cfg.d)
    census_edges = len(cycle_bond_census(g, 2 * horizon)) if 2 * horizon >= 3 else 0
    census_directed = 2 * census_edges

    bound_val = float("nan")
    bound_kind = "walk-unavailable"
    terms: dict = {}
    try:
        vb = explicit_variance_bound(
            BoundInputs(
                kappa=f.kappa,
                d=cfg.d,
                beta=report.walk_gap,
                T=horizon,
                census=census_directed,
                B=g.B,
            )
        )
        bound_val = vb.total
        bound_kind = "full"
        terms = asdict(vb)
    except WalkBoundUnavailableError:
        pass

    return ExperimentRow(
        n=n,
        seed=seed,
        B=g.B,
        beta=report.beta,
        girth=girth(g),
        census_2T=census_directed,
        T=horizon,
        variance=est.estimate,
        stderr=est.stderr,
        bound=bound_val,
        bound_kind=bound_kind,
        bound_terms=terms,
    )


def _row(cfg: ExperimentConfig, n: int, seed: int) -> ExperimentRow:
    """_one_row, or the error row of a row that raises QgeError, LinAlgError
    or MemoryError."""
    try:
        return _one_row(cfg, n, seed)
    except (QgeError, np.linalg.LinAlgError, MemoryError) as exc:
        return ExperimentRow(n=n, seed=seed, status=f"error: {exc}")


def family_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """One row per (n, seed), in config order: n_list outer, seeds inner.

    The rows run one after another in the calling thread, held to one BLAS
    thread, and each row's k-samples run through _runtime.thread_map, so
    the rows depend neither on the worker count nor on OPENBLAS_NUM_THREADS.
    The first exception other than QgeError, LinAlgError and MemoryError
    ends the sweep.
    """
    with _runtime.one_blas_thread():
        return [_row(cfg, n, seed) for n in cfg.n_list for seed in cfg.seeds]
