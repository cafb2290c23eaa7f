"""Run manifests: every CLI output is reproducible from its manifest.

The digest covers command, parameters, seeds, tool version and input file
digests; the timestamp and the run block (qge._runtime.run_block: numpy,
its BLAS, the Lanczos checks' routine, the thread variables, the allocator
thresholds, the worker pool of the k-samples of `qge experiment` and
`qge variance`) are recorded but excluded from the digest, so identical
runs emit byte-identical tables.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

__all__ = ["RunManifest"]


def _sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
        """`run` is the process record kept outside the digest, as
        qge._runtime.run_block builds it."""
        from . import __version__

        digests = {name: _sha256_file(path) for name, path in (inputs or {}).items()}
        return cls(
            command=command,
            params={k: params[k] for k in sorted(params)},
            seeds=tuple(int(s) for s in seeds),
            version=__version__,
            input_digests=digests,
            timestamp=datetime.now(timezone.utc).isoformat(),
            run=dict(run or {}),
        )

    @property
    def digest(self) -> str:
        """sha256 of every field but the timestamp and the run block."""
        payload = {k: v for k, v in asdict(self).items() if k not in ("timestamp", "run")}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_json_dict(self) -> dict:
        return {**asdict(self), "digest": self.digest}
