"""File formats and atomic writers.

Formats:
* graph file: header "n d", then B lines "u v" (0-based vertex ids);
* lengths file: B lines, one finite positive decimal per line, edge order
  of the graph file;
* observable file: 2B lines "re im", directed-bond order (edges first, then
  their reversals);
* matrix dump: CSV "re,im", row-major, one entry per line.

The first three are read by one table reader: blank lines and lines whose
first non-blank character is "#" are skipped, and every other line holds
the same number of whitespace-separated plain decimals (integers in the
graph file).

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
from .graphs import Graph

__all__ = [
    "content_lines",
    "import_graph",
    "export_graph",
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
    """The stripped lines of a line-based format, without blank and "#" lines.

    Strips in one C-level map and filters per line only for what the text
    holds: a text without "#" loses just its blank lines, if it has any.
    """
    lines = list(map(str.strip, text.splitlines()))
    if "#" in text:
        return [ln for ln in lines if ln and ln[0] != "#"]
    return [ln for ln in lines if ln] if "" in lines else lines


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to path through a new file beside it and one rename.

    The new file is created with mode 0o666, so the process umask applies
    as it does to open(path, "w"); tempfile.mkstemp's 0o600 would reach
    the output through the rename.
    """
    path = Path(path)
    for _ in range(tempfile.TMP_MAX):
        tmp = path.parent / f".{path.name}.{os.urandom(4).hex()}"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    else:
        raise FileExistsError(f"no unused temporary name beside {path}")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str | Path, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def format_value(value) -> str:
    """Stable, round-trippable text for CSV cells."""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def write_csv_atomic(
    path: str | Path, header: list[str], rows: list[list], manifest_digest: str
) -> None:
    lines = [f"# manifest {manifest_digest}", ",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(x) for x in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def _read_table(text: str, columns: int, dtype, what: str) -> np.ndarray:
    """The (rows, columns) table of a line-based numeric format."""
    lines = content_lines(text)
    if not lines:
        raise ParseError(f"empty {what} file")
    try:
        table = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{what} file: {exc}") from exc
    if table.shape[1] != columns:
        raise ParseError(f"{what} file: lines must hold {columns} numbers, not {table.shape[1]}")
    return table


def import_graph(text: str) -> Graph:
    """Parse the graph format: header "n d", then B lines "u v"."""
    table = _read_table(text, 2, np.int64, "graph")
    (n, d), edges = table[0].tolist(), table[1:]
    return Graph(n=n, d=d, edges=edges)


def export_graph(g: Graph) -> str:
    """Serialize to the graph format read by import_graph."""
    lines = [f"{g.n} {g.d}"]
    lines.extend(f"{u} {v}" for u, v in g.edges.tolist())
    return "\n".join(lines) + "\n"


def load_graph(path: str | Path) -> Graph:
    return import_graph(Path(path).read_text())


def save_graph(path: str | Path, g: Graph) -> None:
    write_text_atomic(path, export_graph(g))


def load_lengths(path: str | Path, b: int) -> np.ndarray:
    table = _read_table(Path(path).read_text(), 1, np.float64, "lengths")
    if len(table) != b:
        raise ValidationError(f"lengths file has {len(table)} entries, expected {b}")
    return table[:, 0]


def save_lengths(path: str | Path, lengths: np.ndarray) -> None:
    write_text_atomic(path, "\n".join(repr(float(x)) for x in lengths) + "\n")


def _reim(x: complex) -> tuple[float, float]:
    return float(x.real), float(x.imag)


def load_observable(path: str | Path, two_b: int) -> Observable:
    table = _read_table(Path(path).read_text(), 2, np.float64, "observable")
    if len(table) != two_b:
        raise ValidationError(f"observable file has {len(table)} entries, expected {two_b}")
    return Observable(table.view(np.complex128)[:, 0])


def save_observable(path: str | Path, f: Observable) -> None:
    lines = ["{!r} {!r}".format(*_reim(x)) for x in f.f]
    write_text_atomic(path, "\n".join(lines) + "\n")


def save_matrix_csv(path: str | Path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.complex128)
    lines = ["{!r},{!r}".format(*_reim(x)) for x in m.ravel(order="C")]
    write_text_atomic(path, "\n".join(lines) + "\n")
