import json
import math
import os
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import qge.cli
import qge.evolution
import qge.experiment
from qge import _runtime
from qge import (
    BoundInputs,
    ExperimentConfig,
    HadamardOrderError,
    NoEquiTransmittingMatrixError,
    ParameterError,
    ParseError,
    SamplingError,
    ValidationError,
    explicit_variance_bound,
    family_experiment,
    parse_config,
)
from qge.experiment import EXPERIMENT_COLUMNS

BLAS = _runtime.openblas_threads()


@pytest.fixture()
def two_workers(monkeypatch):
    """family_experiment runs each row's k-samples on two workers, each
    held to one BLAS thread where the OpenBLAS setter is found."""
    monkeypatch.setattr(_runtime, "pool_workers", lambda rows: 2)


def spy_rows(monkeypatch, fail=None):
    """Record (n, BLAS threads) of every row's variance estimate, and raise
    `fail(n)` for the rows where it returns an exception."""
    estimate = qge.experiment.variance_estimate
    calls = []

    def spy(a, mg, *args, **kwargs):
        calls.append((mg.graph.n, BLAS[1]() if BLAS else None))
        exc = fail(mg.graph.n) if fail else None
        if exc is not None:
            raise exc
        return estimate(a, mg, *args, **kwargs)

    monkeypatch.setattr(qge.experiment, "variance_estimate", spy)
    return calls


def fail_generation(monkeypatch, n_fail):
    """Make graph generation raise SamplingError for the rows with n_fail
    vertices, as an exhausted rejection sampler would."""
    generate = qge.experiment.generate_random_regular

    def spy(n, d, seed):
        if n == n_fail:
            raise SamplingError(f"no simple pairing found for n={n}, d={d}")
        return generate(n, d, seed)

    monkeypatch.setattr(qge.experiment, "generate_random_regular", spy)


class TestParseConfig:
    def test_full_file(self):
        text = """
        # sweep configuration
        d = 4
        n_list = 10, 20, 40
        seeds = 1,2,3
        K = 50
        samples = 60
        kappa = 2.0
        output = sweep.csv
        """
        cfg = parse_config(text)
        assert cfg == ExperimentConfig(
            d=4,
            n_list=(10, 20, 40),
            seeds=(1, 2, 3),
            K=50.0,
            samples=60,
            kappa=2.0,
            output="sweep.csv",
        )

    def test_defaults(self):
        cfg = parse_config("d=4\nn_list=10\nseeds=1\n")
        assert cfg.K == 200.0
        assert cfg.samples == 200
        assert cfg.kappa == 1.0
        assert cfg.output == "experiment.csv"

    def test_missing_key(self):
        with pytest.raises(ParseError, match="missing"):
            parse_config("d=4\nn_list=10\n")

    def test_bad_value(self):
        with pytest.raises(ParseError):
            parse_config("d=four\nn_list=10\nseeds=1\n")

    def test_bad_line(self):
        with pytest.raises(ParseError):
            parse_config("d=4\nn_list=10\nseeds=1\njunk line\n")

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("sample = 5", "config line 4: unknown key 'sample'"),
            ("samples = 5\nsamples = 6", "config line 5: key 'samples' given twice"),
            ("d = 4", "config line 4: key 'd' given twice"),
        ],
    )
    def test_unknown_or_repeated_key(self, extra, message):
        with pytest.raises(ParseError, match=message):
            parse_config(f"d=4\nn_list=10\nseeds=1\n{extra}\n")

    @pytest.mark.parametrize("seeds", ["-1", "0, -3", str(qge.experiment.MAX_SEED + 1)])
    def test_seed_out_of_range(self, seeds):
        with pytest.raises(ValidationError, match="seeds"):
            parse_config(f"d=4\nn_list=10\nseeds={seeds}\n")

    def test_largest_seed(self):
        cfg = parse_config(f"d=4\nn_list=10\nseeds=0, {qge.experiment.MAX_SEED}\n")
        assert cfg.seeds == (0, qge.experiment.MAX_SEED)


# the bad values of the CLI's invalid-config tests, as ExperimentConfig
# fields, with the error each raises
BAD_CONFIGS = {
    "samples=0": ({"samples": 0}, ParameterError, "config samples=0 must be a positive integer"),
    "K=0": ({"K": 0.0}, ValidationError, "must be finite and positive"),
    "kappa=-1": ({"kappa": -1.0}, ValidationError, "must be finite and positive"),
    "d=2": ({"d": 2}, ParameterError, "config d=2 must be an integer >= 3"),
    "d=3": ({"d": 3}, NoEquiTransmittingMatrixError, "no 3x3"),
    "d=6": ({"d": 6}, HadamardOrderError, "order 6"),
    "n_list=10,4": ({"n_list": (10, 4)}, ParameterError, "config n_list=4 must be an integer >= 5"),
    "n_list=4": ({"n_list": (4,)}, ParameterError, "config n_list=4 must be an integer >= 5"),
    "K=inf": ({"K": math.inf}, ValidationError, "must be finite and positive"),
    "kappa=inf": ({"kappa": math.inf}, ValidationError, "must be finite and positive"),
    "seeds=-1": ({"seeds": (-1,)}, ParameterError, "config seeds=-1 must be an integer >= 0"),
    "seeds=1,-3": ({"seeds": (1, -3)}, ParameterError, "config seeds=-3 must be an integer >= 0"),
    "seeds=2^64-1": ({"seeds": (2**64 - 1,)}, ValidationError, "seeds must lie in"),
    "n_list=()": ({"n_list": ()}, ParseError, "n_list and seeds must be non-empty"),
    "seeds=()": ({"seeds": ()}, ParseError, "n_list and seeds must be non-empty"),
}

# values only a Python caller can pass: each once ran, or became an error row
NON_INTEGER_CONFIGS = {
    "samples=2.5": ({"samples": 2.5}, "config samples=2.5 must be a positive integer"),
    "n_list=10.5": ({"n_list": (10.5,)}, "config n_list=10.5 must be an integer >= 5"),
    "seeds=1.5": ({"seeds": (1.5,)}, "config seeds=1.5 must be an integer >= 0"),
    "d=True": ({"d": True}, "config d=True must be an integer >= 3"),
    "samples=nan": ({"samples": math.nan}, "config samples=nan must be a positive integer"),
}


class TestConfigValues:
    """ExperimentConfig checks its values however it is built, so a sweep
    never starts from one it cannot run."""

    @pytest.mark.parametrize("case", BAD_CONFIGS)
    def test_direct_construction_refuses(self, case):
        fields, error, message = BAD_CONFIGS[case]
        base = {"d": 4, "n_list": (10,), "seeds": (1,), "K": 10.0, "samples": 5}
        with pytest.raises(error, match=re.escape(message)):
            ExperimentConfig(**{**base, **fields})

    @pytest.mark.parametrize("case", NON_INTEGER_CONFIGS)
    def test_non_integer_refused_up_front(self, case):
        fields, message = NON_INTEGER_CONFIGS[case]
        base = {"d": 4, "n_list": (10,), "seeds": (1,), "K": 10.0, "samples": 5}
        with pytest.raises(ParameterError, match=re.escape(message)):
            ExperimentConfig(**{**base, **fields})

    def test_integral_values_stored_as_ints(self):
        cfg = ExperimentConfig(
            d=4.0, n_list=[np.int64(10), 12.0], seeds=(np.uint8(1), 2.0), samples=5.0
        )
        assert cfg == ExperimentConfig(d=4, n_list=(10, 12), seeds=(1, 2), samples=5)
        values = [cfg.d, *cfg.n_list, *cfg.seeds, cfg.samples]
        assert all(type(v) is int for v in values)
        assert type(cfg.n_list) is tuple and type(cfg.seeds) is tuple

    @pytest.mark.parametrize("key", ["n_list", "seeds"])
    def test_parse_refuses_an_empty_list(self, key):
        lines = {"d": "4", "n_list": "10", "seeds": "1", key: " , "}
        with pytest.raises(ParseError, match="n_list and seeds must be non-empty"):
            parse_config("".join(f"{k}={v}\n" for k, v in lines.items()))


class TestFamilyExperiment:
    def test_small_sweep(self):
        cfg = ExperimentConfig(d=4, n_list=(10, 16), seeds=(1, 2), K=25.0, samples=25)
        rows = family_experiment(cfg)
        assert len(rows) == 4
        assert [r.status for r in rows] == ["ok"] * 4
        for r in rows:
            assert r.B == r.n * 2
            assert r.T == 1
            assert r.girth is not None and r.girth >= 3
            assert 0.0 <= r.variance <= 4.0 * cfg.kappa**2
            if r.bound_kind == "full":
                assert r.variance <= r.bound
                assert r.bound_terms["total"] == pytest.approx(r.bound)
            else:
                assert math.isnan(r.bound)

    @pytest.mark.usefixtures("two_workers")
    def test_failed_rows_marked_not_dropped(self, monkeypatch):
        fail_generation(monkeypatch, 12)
        cfg = ExperimentConfig(d=4, n_list=(12, 10), seeds=(1,), K=10.0, samples=5)
        rows = family_experiment(cfg)
        assert len(rows) == 2
        assert rows[0].status.startswith("error:")
        assert math.isnan(rows[0].variance)
        assert rows[1].status == "ok"

    @pytest.mark.usefixtures("two_workers")
    def test_linalg_error_marks_only_its_row(self, monkeypatch):
        def fail_at_16(n):
            return np.linalg.LinAlgError("Eigenvalues did not converge") if n == 16 else None

        spy_rows(monkeypatch, fail_at_16)
        cfg = ExperimentConfig(d=4, n_list=(10, 16, 20), seeds=(1,), K=10.0, samples=5)
        rows = family_experiment(cfg)
        assert [r.status for r in rows] == ["ok", "error: Eigenvalues did not converge", "ok"]
        assert math.isnan(rows[1].variance)

    @pytest.mark.usefixtures("two_workers")
    def test_memory_error_marks_only_its_row(self, monkeypatch):
        def fail_at_16(n):
            return MemoryError("Unable to allocate 47.7 GiB") if n == 16 else None

        spy_rows(monkeypatch, fail_at_16)
        cfg = ExperimentConfig(d=4, n_list=(10, 16, 20), seeds=(1,), K=10.0, samples=5)
        rows = family_experiment(cfg)
        assert [r.status for r in rows] == ["ok", "error: Unable to allocate 47.7 GiB", "ok"]
        assert math.isnan(rows[1].variance)

    @pytest.mark.usefixtures("two_workers")
    def test_rows_in_config_order(self):
        cfg = ExperimentConfig(d=4, n_list=(10, 24, 12), seeds=(3, 1), K=10.0, samples=4)
        rows = family_experiment(cfg)
        assert [(r.n, r.seed) for r in rows] == [(10, 3), (10, 1), (24, 3), (24, 1), (12, 3), (12, 1)]
        assert [r.status for r in rows] == ["ok"] * 6

    def test_hopeless_degree_row_fails_at_once(self):
        # d = 8 has an equi-transmitting matrix but no feasible rejection sampler
        cfg = ExperimentConfig(d=8, n_list=(20,), seeds=(1,), K=10.0, samples=5)
        start = time.perf_counter()
        (row,) = family_experiment(cfg)
        assert time.perf_counter() - start < 2.0
        assert row.status.startswith("error: a simple pairing takes about e^15.75 draws")

    def test_failed_row_girth_cell_empty(self, monkeypatch):
        fail_generation(monkeypatch, 12)
        cfg = ExperimentConfig(d=4, n_list=(12, 10), seeds=(1,), K=10.0, samples=5)
        failed, ok = family_experiment(cfg)
        girth = EXPERIMENT_COLUMNS.index("girth")
        assert failed.status.startswith("error:")
        assert failed.csv_values()[girth] == ""
        assert ok.csv_values()[girth] == ok.girth

    def test_bound_uses_sup_norm_at_odd_n(self):
        # the mean-centred parity observable has sup|f| = kappa (1 + 1/n) at odd n
        cfg = ExperimentConfig(d=4, n_list=(21,), seeds=(1,), K=10.0, samples=5)
        (row,) = family_experiment(cfg)
        assert row.bound_kind == "full"
        inputs = BoundInputs(
            kappa=1.0 + 1.0 / 21, d=4, beta=row.beta, T=row.T, census=row.census_2T, B=row.B
        )
        assert row.bound == pytest.approx(explicit_variance_bound(inputs).total, rel=1e-12)

    def test_deterministic(self):
        cfg = ExperimentConfig(d=4, n_list=(10,), seeds=(3,), K=20.0, samples=10)
        r1 = family_experiment(cfg)[0]
        r2 = family_experiment(cfg)[0]
        assert r1.variance == r2.variance
        assert r1.beta == r2.beta


class TestRowPool:
    """The rows run one after another on the calling thread and their
    k-samples on a thread pool, each with one BLAS thread where the
    OpenBLAS setter is found."""

    CFG = ExperimentConfig(d=4, n_list=(10, 16, 20), seeds=(1, 2), K=10.0, samples=4)

    def test_rows_independent_of_pool_width(self, monkeypatch):
        # at any pool width, switching threads every microsecond, the rows
        # run on the calling thread in config order and come out bit for bit
        # the same (repr tells every pair of distinct floats apart)
        calls, one_row = [], qge.experiment._one_row

        def spy(cfg, n, seed):
            calls.append((n, seed, threading.get_ident()))
            return one_row(cfg, n, seed)

        monkeypatch.setattr(qge.experiment, "_one_row", spy)
        expected = [(n, seed, threading.get_ident()) for n in self.CFG.n_list for seed in self.CFG.seeds]
        sweeps = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 8):
                monkeypatch.setattr(_runtime, "pool_workers", lambda items, w=workers: w)
                calls.clear()
                sweeps.append(repr(family_experiment(self.CFG)))
                assert calls == expected
        finally:
            sys.setswitchinterval(interval)
        assert sweeps[0] == sweeps[1] == sweeps[2]
        assert "error" not in sweeps[0]

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        expected = (6, 1) if BLAS else (1, None)
        record = _runtime.run_block(6)
        assert (record["workers"], record["blas_threads"]) == expected
        assert _runtime.run_block(3)["workers"] == (3 if BLAS else 1)

    def test_no_setter_runs_one_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(_runtime, "openblas_threads", lambda: None)
        record = _runtime.run_block(6)
        assert (record["workers"], record["blas_threads"]) == (1, None)
        threads = set()
        one_row = qge.experiment._one_row

        def spy(cfg, n, seed):
            threads.add(threading.get_ident())
            return one_row(cfg, n, seed)

        monkeypatch.setattr(qge.experiment, "_one_row", spy)
        assert [r.status for r in family_experiment(self.CFG)] == ["ok"] * 6
        assert len(threads) == 1

    @pytest.mark.usefixtures("two_workers")
    def test_unexpected_exception_propagates(self, monkeypatch):
        spy_rows(monkeypatch, lambda n: RuntimeError("row broke") if n == 16 else None)
        threads = threading.active_count()
        count = BLAS[1]() if BLAS else None
        with pytest.raises(RuntimeError, match="row broke"):
            family_experiment(self.CFG)
        assert threading.active_count() == threads
        assert (BLAS[1]() if BLAS else None) == count

    @pytest.mark.usefixtures("two_workers")
    def test_exception_ends_the_sweep_at_once(self, monkeypatch):
        # as in a serial loop, no row after the one that raises runs
        calls = spy_rows(monkeypatch, lambda n: RuntimeError("row broke") if n == 16 else None)
        with pytest.raises(RuntimeError, match="row broke"):
            family_experiment(self.CFG)
        assert [n for n, _ in calls] == [10, 10, 16]

    @pytest.mark.usefixtures("two_workers")
    def test_row_k_samples_run_on_the_pool(self, monkeypatch):
        # each row runs on the calling thread, which only waits while the
        # row's eigensolves run on its pool: at most two workers, which start
        # on demand, so a worker that starts late may find a tiny row done
        # (thread objects, kept alive, since a finished thread's ident is
        # reused)
        estimate, eigenbasis = qge.experiment.variance_estimate, qge.evolution.eigenbasis
        rows, solves = {}, []  # by the id of each row's bond index, kept alive

        def spy_row(a, *args, **kwargs):
            rows[id(a.bond_index)] = (a.bond_index, threading.current_thread())
            return estimate(a, *args, **kwargs)

        def spy_solve(u):
            solves.append((id(u.bond_index), threading.current_thread()))
            return eigenbasis(u)

        monkeypatch.setattr(qge.experiment, "variance_estimate", spy_row)
        monkeypatch.setattr(qge.evolution, "eigenbasis", spy_solve)
        family_experiment(self.CFG)
        caller = threading.current_thread()
        assert len(rows) == 6 and len(solves) == 6 * self.CFG.samples
        assert {thread for _, thread in rows.values()} == {caller}
        for row in rows:
            threads = {thread for solved, thread in solves if solved == row}
            assert 1 <= len(threads) <= 2 and caller not in threads

    @pytest.mark.skipif(BLAS is None, reason="no OpenBLAS thread setter found")
    @pytest.mark.parametrize("fail", [False, True], ids=["return", "raise"])
    def test_blas_threads_pinned_then_restored(self, monkeypatch, fail):
        set_threads, get_threads = BLAS
        old = get_threads()
        calls = spy_rows(monkeypatch, lambda n: RuntimeError("row broke") if fail and n == 10 else None)
        set_threads(3)
        try:
            if fail:
                with pytest.raises(RuntimeError):
                    family_experiment(self.CFG)
            else:
                family_experiment(self.CFG)
            assert get_threads() == 3
        finally:
            set_threads(old)
        assert calls and {threads for _, threads in calls} == {1}


@pytest.mark.skipif(BLAS is None, reason="no OpenBLAS thread setter found")
class TestCoreCount:
    """The pool's width follows the usable cores, and the manifest of
    `qge experiment` records it."""

    CONFIG = "d = 4\nn_list = 10, 12\nseeds = 1, 2\nK = 10\nsamples = 4\n"

    def sweep(self, tmp_path, monkeypatch, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        config, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
        config.write_text(self.CONFIG)
        assert qge.cli.main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        return manifest["run"]["workers"], out.read_text()

    def test_two_cores_run_two_k_samples_at_once(self, tmp_path, monkeypatch):
        # each k-sample waits until another one is running too: on one
        # thread the barrier would break after its timeout
        barrier, threads, eigenbasis = threading.Barrier(2), set(), qge.evolution.eigenbasis

        def solve(u):
            threads.add(threading.get_ident())
            barrier.wait(timeout=10)
            return eigenbasis(u)

        monkeypatch.setattr(qge.evolution, "eigenbasis", solve)
        workers, table = self.sweep(tmp_path, monkeypatch, 2)
        assert workers == 2
        assert len(threads) >= 2 and threading.get_ident() not in threads
        assert "error" not in table

    def test_one_core_runs_rows_on_one_thread(self, tmp_path, monkeypatch):
        threads = set()

        def one_row(cfg, n, seed):
            threads.add(threading.get_ident())
            return qge.experiment.ExperimentRow(n=n, seed=seed)

        monkeypatch.setattr(qge.experiment, "_one_row", one_row)
        workers, _ = self.sweep(tmp_path, monkeypatch, 1)
        assert workers == 1
        assert len(threads) == 1
