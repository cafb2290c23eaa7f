"""Run manifests: every CLI output is reproducible from its manifest.

The digest covers command, parameters, seeds, tool version and input file
digests; the timestamp and the run setup (numpy, its BLAS, the thread
variables, the allocator thresholds, a sweep's row pool) are recorded but
excluded from the digest, so identical runs emit byte-identical tables.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

__all__ = ["RunManifest"]

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run_setup() -> dict:
    """numpy's version, its BLAS and the thread variables of this process;
    the BLAS thread count can change the last digits of a result."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        **{name: os.environ.get(name) for name in _THREAD_VARS},
    }


@dataclass(frozen=True)
class RunManifest:
    command: str
    params: dict
    seeds: tuple[int, ...]
    version: str
    input_digests: dict
    timestamp: str
    run: dict

    @classmethod
    def build(
        cls,
        command: str,
        params: dict,
        seeds=(),
        inputs: dict | None = None,
        run: dict | None = None,
    ) -> "RunManifest":
        """`run` holds the process settings recorded beside numpy's setup:
        the allocator thresholds and, for a sweep, its row pool."""
        from . import __version__

        digests = {name: _sha256_file(path) for name, path in (inputs or {}).items()}
        return cls(
            command=command,
            params={k: params[k] for k in sorted(params)},
            seeds=tuple(int(s) for s in seeds),
            version=__version__,
            input_digests=digests,
            timestamp=datetime.now(timezone.utc).isoformat(),
            run={**_run_setup(), **(run or {})},
        )

    @property
    def digest(self) -> str:
        payload = {
            "command": self.command,
            "params": self.params,
            "seeds": list(self.seeds),
            "version": self.version,
            "input_digests": self.input_digests,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "seeds": list(self.seeds),
            "version": self.version,
            "input_digests": self.input_digests,
            "timestamp": self.timestamp,
            "run": self.run,
            "digest": self.digest,
        }
