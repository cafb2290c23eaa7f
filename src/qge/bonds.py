"""Directed-bond indexing for graphs on B undirected bonds.

Convention used everywhere in this package: directed bonds 0..B-1 are the
edges (u -> v) in edge-list order, and bonds B..2B-1 are their reversals, in
the same order.  The reversal involution is therefore b -> (b + B) mod 2B.

The wiring of the graph is stated once, by `out_bonds`: row v lists the
bonds leaving v in increasing head order, so column j is the slot that a
vertex's j-th smallest neighbour occupies in its vertex matrix.  Incoming
bonds, successors, neighbour lists and the adjacency matrix derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .graphs import Graph

__all__ = ["BondIndex"]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _scatter(bi: BondIndex, blocks: np.ndarray) -> np.ndarray:
    """The dense 2B x 2B matrix of per-vertex (n, d, d) blocks, entry
    [in_bonds[v, i], out_bonds[v, j]] = blocks[v, i, j], zero elsewhere."""
    m = np.zeros((bi.num_directed, bi.num_directed), dtype=blocks.dtype)
    m[bi.in_bonds[:, :, None], bi.out_bonds[:, None, :]] = blocks
    return m


@dataclass(frozen=True)
class BondIndex:
    """Index of the 2B directed bonds of a validated d-regular graph.

    tails[b] / heads[b] give the start / end vertex of directed bond b,
    and rev[b] its reversal.  head(b) == tail(rev(b)) by construction.
    out_bonds is the (n, d) wiring array described in the module docstring.
    """

    n: int
    tails: np.ndarray = field(repr=False)
    heads: np.ndarray = field(repr=False)
    rev: np.ndarray = field(repr=False)
    out_bonds: np.ndarray = field(repr=False)

    @classmethod
    def from_graph(cls, g: Graph) -> "BondIndex":
        """Bond index of a Graph, whose validation (range, loops, repeats,
        regularity) makes every row of out_bonds exactly d long."""
        uv = np.array(g.edges, dtype=np.int64).reshape(g.B, 2)
        tails = np.concatenate([uv[:, 0], uv[:, 1]])
        heads = np.concatenate([uv[:, 1], uv[:, 0]])
        two_b = 2 * g.B
        rev = (np.arange(two_b) + g.B) % two_b
        out_bonds = np.lexsort((heads, tails)).reshape(g.n, g.d)
        return cls(
            n=g.n,
            tails=_frozen(tails),
            heads=_frozen(heads),
            rev=_frozen(rev),
            out_bonds=_frozen(out_bonds),
        )

    @property
    def B(self) -> int:
        return len(self.tails) // 2

    @property
    def num_directed(self) -> int:
        return len(self.tails)

    @cached_property
    def in_bonds(self) -> np.ndarray:
        """Directed bonds entering each vertex, sorted by tail vertex id:
        the reversals of the outgoing bonds, slot for slot."""
        return _frozen(self.rev[self.out_bonds])

    @cached_property
    def adjacency(self) -> np.ndarray:
        """The n x n connectivity matrix (0/1 integers)."""
        c = np.zeros((self.n, self.n), dtype=np.int64)
        c[self.tails, self.heads] = 1
        return _frozen(c)

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Non-backtracking successors: bonds c with tail(c) = head(b), c != rev(b),
        in slot order."""
        cand = self.out_bonds[self.heads]
        keep = cand != self.rev[:, None]
        rows = cand[keep].reshape(self.num_directed, -1)
        return tuple(map(tuple, rows.tolist()))
