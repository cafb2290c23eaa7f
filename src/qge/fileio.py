"""File formats and atomic writers.

Formats:
* graph file: header "n d", then B lines "u v" (0-based vertex ids);
* lengths file: B lines, one finite positive decimal per line, edge order
  of the graph file;
* observable file: 2B lines "re im", directed-bond order (edges first, then
  their reversals);
* matrix dump: CSV "re,im", row-major, one entry per line.

All writers go through a temp file plus atomic rename, so failures never
leave partial output.  CSV and JSON outputs carry the manifest digest (CSV
as a leading "# manifest <digest>" comment line).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .evolution import Observable
from .graphs import Graph, export_graph, import_graph

__all__ = [
    "content_lines",
    "write_text_atomic",
    "write_json_atomic",
    "write_csv_atomic",
    "load_graph",
    "save_graph",
    "load_lengths",
    "save_lengths",
    "load_observable",
    "save_observable",
    "save_matrix_csv",
    "format_value",
]


def content_lines(text: str) -> list[str]:
    """The stripped lines of a line-based format, without blank and "#" lines."""
    lines = (ln.strip() for ln in text.splitlines())
    return [ln for ln in lines if ln and not ln.startswith("#")]


def write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str | Path, obj, manifest_digest: str | None = None) -> None:
    if manifest_digest is not None:
        obj = dict(obj)
        obj["manifest"] = manifest_digest
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def format_value(value) -> str:
    """Stable, round-trippable text for CSV cells."""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def write_csv_atomic(
    path: str | Path,
    header: list[str],
    rows: list[list],
    manifest_digest: str | None = None,
) -> None:
    lines = []
    if manifest_digest is not None:
        lines.append(f"# manifest {manifest_digest}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(x) for x in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_graph(path: str | Path) -> Graph:
    return import_graph(Path(path).read_text())


def save_graph(path: str | Path, g: Graph) -> None:
    write_text_atomic(path, export_graph(g))


def load_lengths(path: str | Path, b: int) -> np.ndarray:
    lines = content_lines(Path(path).read_text())
    if len(lines) != b:
        raise ValidationError(f"lengths file has {len(lines)} entries, expected {b}")
    try:
        vals = np.array([float(ln) for ln in lines])
    except ValueError as exc:
        raise ParseError(f"non-numeric length entry: {exc}") from exc
    return vals


def save_lengths(path: str | Path, lengths: np.ndarray) -> None:
    write_text_atomic(path, "\n".join(repr(float(x)) for x in lengths) + "\n")


def _reim(x: complex) -> tuple[float, float]:
    return float(x.real), float(x.imag)


def load_observable(path: str | Path, two_b: int) -> Observable:
    lines = content_lines(Path(path).read_text())
    if len(lines) != two_b:
        raise ValidationError(f"observable file has {len(lines)} entries, expected {two_b}")
    values = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"observable line must be 're im', got {ln!r}")
        try:
            values.append(complex(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ParseError(f"non-numeric observable entry {ln!r}") from exc
    return Observable.from_vector(np.array(values))


def save_observable(path: str | Path, f: Observable) -> None:
    lines = ["{!r} {!r}".format(*_reim(x)) for x in f.f]
    write_text_atomic(path, "\n".join(lines) + "\n")


def save_matrix_csv(path: str | Path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.complex128)
    lines = ["{!r},{!r}".format(*_reim(x)) for x in m.ravel(order="C")]
    write_text_atomic(path, "\n".join(lines) + "\n")
