"""Family sweep: variance estimates against the explicit bound over a
sequence of random regular graphs.

Each (n, seed) pair becomes one row: draw a uniform simple d-regular graph,
seeded bond lengths, the equi-transmitting assembly, the deterministic
vertex-parity observable, then estimate the quantum variance and assemble
the explicit bound at horizon T(n).  Failed rows are marked, never dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
CONFIG_KEYS = ("d", "n_list", "seeds", "K", "samples", "kappa", "output")

EXPERIMENT_COLUMNS = [
    "n",
    "B",
    "beta",
    "girth",
    "census_2T",
    "T",
    "variance",
    "bound",
    "seed",
    "stderr",
    "bound_kind",
    "status",
]


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    n_list: tuple[int, ...]
    seeds: tuple[int, ...]
    K: float = 200.0
    samples: int = 200
    kappa: float = 1.0
    output: str = "experiment.csv"


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key=value config format (keys: CONFIG_KEYS, each at most
    once; lists comma-separated).  An unknown or repeated key raises
    ParseError.

    Values a sweep cannot run with (d < 3, n <= d, samples < 1, K or kappa
    not finite and positive, a seed outside [0, MAX_SEED]) raise
    ValidationError before any row is computed.
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
    required = {"d", "n_list", "seeds"}
    missing = required - entries.keys()
    if missing:
        raise ParseError(f"config missing keys: {sorted(missing)}")
    try:
        d = int(entries["d"])
        n_list = tuple(int(x) for x in entries["n_list"].split(",") if x.strip())
        seeds = tuple(int(x) for x in entries["seeds"].split(",") if x.strip())
        k_window = float(entries.get("K", "200"))
        samples = int(entries.get("samples", "200"))
        kappa = float(entries.get("kappa", "1"))
    except ValueError as exc:
        raise ParseError(f"config value malformed: {exc}") from exc
    if not n_list or not seeds:
        raise ParseError("n_list and seeds must be non-empty")
    if d < 3:
        raise ValidationError(f"config d={d} must be >= 3")
    if any(n <= d for n in n_list):
        raise ValidationError(f"every n in n_list must exceed d={d}")
    if samples < 1:
        raise ValidationError(f"config samples={samples} must be >= 1")
    if any(not 0 <= s <= MAX_SEED for s in seeds):
        raise ValidationError(f"config seeds must lie in [0, {MAX_SEED}]")
    if not (0 < k_window < math.inf and 0 < kappa < math.inf):
        raise ValidationError(
            f"config K={k_window} and kappa={kappa} must be finite and positive"
        )
    return ExperimentConfig(
        d=d,
        n_list=n_list,
        seeds=seeds,
        K=k_window,
        samples=samples,
        kappa=kappa,
        output=entries.get("output", "experiment.csv"),
    )


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    seed: int
    B: int = 0
    beta: float = float("nan")
    girth: int | None = None
    census_2t: int = 0
    T: int = 0
    variance: float = float("nan")
    stderr: float = float("nan")
    bound: float = float("nan")
    bound_kind: str = "none"
    status: str = "ok"
    bound_terms: dict = field(default_factory=dict)

    def csv_values(self) -> list:
        """The row in EXPERIMENT_COLUMNS order; a failed row, which never
        measured its graph, leaves the girth cell empty."""
        girth = self.girth if self.girth is not None else "acyclic"
        return [
            self.n,
            self.B,
            self.beta,
            girth if self.status == "ok" else "",
            self.census_2t,
            self.T,
            self.variance,
            self.bound,
            self.seed,
            self.stderr,
            self.bound_kind,
            self.status,
        ]


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
                kappa=cfg.kappa,
                d=cfg.d,
                beta=report.beta,
                T=horizon,
                census=census_directed,
                B=g.B,
            )
        )
        bound_val = vb.total
        bound_kind = "full"
        terms = vb.to_json_dict()
    except WalkBoundUnavailableError:
        pass

    return ExperimentRow(
        n=n,
        seed=seed,
        B=g.B,
        beta=report.beta,
        girth=girth(g),
        census_2t=census_directed,
        T=horizon,
        variance=est.estimate,
        stderr=est.stderr,
        bound=bound_val,
        bound_kind=bound_kind,
        bound_terms=terms,
    )


def family_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    rows = []
    for n in cfg.n_list:
        for seed in cfg.seeds:
            try:
                rows.append(_one_row(cfg, n, seed))
            except (QgeError, np.linalg.LinAlgError) as exc:
                rows.append(
                    ExperimentRow(n=n, seed=seed, status=f"error: {exc}")
                )
    return rows
