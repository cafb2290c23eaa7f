"""Directed-bond indexing for graphs on B undirected bonds.

Convention used everywhere in this package: directed bonds 0..B-1 are the
edges (u -> v) in edge-list order, and bonds B..2B-1 are their reversals, in
the same order.  The reversal involution is therefore b -> (b + B) mod 2B.

The wiring of the graph is stated once, by `out_bonds`: row v lists the
bonds leaving v in increasing head order, so column j is the slot that a
vertex's j-th smallest neighbour occupies in its vertex matrix.  Incoming
bonds, successors, neighbour lists and the adjacency matrix derive from it,
and so does every BondOperator: S, the walk M and U(k).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:
    from .graphs import Graph

__all__ = ["BondIndex", "BondOperator"]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _owned(a, dtype=None) -> np.ndarray:
    """a itself when it is a read-only array of dtype, else a read-only copy: the
    caller's array stays writeable, and a later write to it never reaches the owner."""
    a = np.asarray(a, dtype=dtype)
    return _frozen(a.copy()) if a.flags.writeable else a


@dataclass(frozen=True, eq=False)
class BondIndex:
    """Index of the 2B directed bonds of a validated d-regular graph, built
    from the graph alone, whose validation (range, loops, repeats,
    regularity) makes every row of out_bonds exactly d long.

    tails[b] / heads[b] give the start / end vertex of directed bond b,
    and rev[b] its reversal.  head(b) == tail(rev(b)) by construction.
    out_bonds is the (n, d) wiring array described in the module docstring.
    """

    graph: InitVar[Graph]
    n: int = field(init=False)
    tails: np.ndarray = field(init=False, repr=False)
    heads: np.ndarray = field(init=False, repr=False)
    rev: np.ndarray = field(init=False, repr=False)
    out_bonds: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, graph: Graph):
        u, v = graph.edges.T
        tails = np.concatenate([u, v])
        heads = np.concatenate([v, u])
        rev = (np.arange(2 * graph.B) + graph.B) % (2 * graph.B)
        out_bonds = np.lexsort((heads, tails)).reshape(graph.n, graph.d)
        for name, value in (("tails", tails), ("heads", heads), ("rev", rev), ("out_bonds", out_bonds)):
            object.__setattr__(self, name, _frozen(value))
        object.__setattr__(self, "n", graph.n)

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
    def successors(self) -> np.ndarray:
        """Non-backtracking successors, the read-only (2B, d-1) array whose
        row b lists the bonds c with tail(c) = head(b), c != rev(b), in
        slot order."""
        cand = self.out_bonds[self.heads]
        keep = cand != self.rev[:, None]
        return _frozen(cand[keep].reshape(self.num_directed, -1))

    @cached_property
    def pair_scatter(self) -> tuple[np.ndarray, np.ndarray]:
        """(targets, units) that scatter the terms of W^2 into the dense
        pair-basis square M^2 = V0^H W^2 V0 of evolution._reversal_attempt,
        for any operator W on the successor pattern.

        W^2 is the sum of m = 2B (d-1)^2 terms w[b, j] w[c, l],
        c = succ[b, j], at row b and column succ[c, l], taken in (b, j, l)
        order.  In the pair basis the term at (b, c) adds units[r] times
        itself to the four entries of M^2 at rows b mod B and b mod B + B
        and columns c mod B and c mod B + B, whose flat indices in the
        transposed square are targets[r * m : (r + 1) * m]; the units are
        1/2, +-i/2, -+i/2 and +-1/2, signed by whether b < B and c < B.
        Scattered into the transposed square, M^2 is column-major, the
        layout LAPACK takes.
        """
        n, half = self.num_directed, self.B
        cols = self.successors[self.successors].ravel()
        rows = np.repeat(np.arange(n), len(cols) // n)
        # few temporaries: variance_estimate builds this on the calling thread,
        # whose freed memory no pool worker (each in its own malloc arena) reuses
        quadrants = np.array([[0], [half * n], [half], [half * n + half]])
        targets = (cols % half * n + rows % half + quadrants).ravel()
        sr, sc = np.where(rows < half, 1.0, -1.0), np.where(cols < half, 1.0, -1.0)
        units = np.stack([np.ones(len(rows)), 1j * sc, -1j * sr, sr * sc])
        units *= 0.5
        return _frozen(targets), _frozen(units)


@dataclass(frozen=True, eq=False)
class BondOperator:
    """diag(phases) X on the 2B directed bonds (phases default to all ones),
    where X[in_bonds[v, i], out_bonds[v, j]] = blocks[v, j, i] is wired
    from per-vertex (n, d, d) blocks and zero elsewhere.  With the vertex
    matrices sigma_v as blocks X is S, and S.with_phases(e^{ikL}) is U(k);
    with the blocks |sigma_v|^2 it is the walk M.  X[b, rev(b)] is the
    diagonal entry of b's slot at head(b), so zero diagonals mean no
    back-scattering.  `o @ x` is one gather (see `gather`) on a (2B,) or
    (2B, m) array, in O(2B d m), and `o.dense()` one scatter.
    """

    bond_index: BondIndex
    blocks: np.ndarray = field(repr=False)
    phases: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        n, d = self.bond_index.out_bonds.shape
        blocks = _owned(self.blocks)
        if blocks.shape != (n, d, d):
            raise ValidationError(f"blocks must have shape ({n}, {d}, {d}), got {blocks.shape}")
        two_b = self.bond_index.num_directed
        phases = _frozen(np.ones(two_b)) if self.phases is None else _owned(self.phases)
        if phases.shape != (two_b,):
            raise ValidationError(f"phases for {two_b} bonds, got shape {phases.shape}")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "phases", phases)

    def with_phases(self, phases: np.ndarray) -> BondOperator:
        """diag(phases) X, sharing the block facts computed once for X."""
        op = BondOperator(self.bond_index, self.blocks, phases)
        shared = ("antisymmetric", "gather", "_gram")
        op.__dict__.update((name, getattr(self, name)) for name in shared)
        return op

    @cached_property
    def antisymmetric(self) -> bool:
        """blocks[v]^T = -blocks[v] at every vertex, as for equi-transmitting
        sigma_v: then J W J = -W^T for the bond reversal J and the gauged
        W = D X D, D = diag(sqrt(phases)) (see evolution.eigenbasis)."""
        return bool(np.array_equal(self.blocks.transpose(0, 2, 1), -self.blocks))

    @property
    def no_backscatter(self) -> bool:
        return bool(np.all(np.diagonal(self.blocks, axis1=1, axis2=2) == 0.0))

    @cached_property
    def gather(self) -> tuple[np.ndarray, np.ndarray]:
        """(c, w), both (2B, s), with (X x)[b] = sum_j w[b, j] x[c[b, j]]:
        c[b] holds the d-1 successors of b or, when some block has a
        non-zero diagonal, all d bonds leaving head(b), rev(b) included."""
        bi = self.bond_index
        d = bi.out_bonds.shape[1]
        slot = np.empty(bi.num_directed, dtype=np.int64)
        slot[bi.in_bonds] = np.arange(d)  # b = in_bonds[heads[b], slot[b]]
        rows = self.blocks[bi.heads, :, slot]  # rows[b, j] = X[b, out_bonds[heads[b], j]]
        if not self.no_backscatter:
            return _frozen(bi.out_bonds[bi.heads]), _frozen(rows)
        keep = np.arange(d) != slot[:, None]
        return bi.successors, _frozen(rows[keep].reshape(bi.num_directed, d - 1))

    @cached_property
    def _weights(self) -> np.ndarray:
        """phases[:, None] * w of gather: the weights of `self @ x`, formed
        once per operator (with_phases cannot share them)."""
        return _frozen(self.phases[:, None] * self.gather[1])

    @cached_property
    def _gram(self) -> np.ndarray:
        """blocks[v]^T conj(blocks[v]), the blocks of X X^H: out_bonds and
        in_bonds each list every bond once, so X is block diagonal up to row
        and column permutations."""
        rows = self.blocks.transpose(0, 2, 1)
        return rows @ rows.conj().transpose(0, 2, 1)

    def unitarity_deviation(self) -> float:
        """max |O O^H - I| from the blocks: O O^H has the blocks
        diag(p_v) gram_v diag(p_v)^H, p_v the phases of the bonds entering
        v."""
        p = self.phases[self.bond_index.in_bonds]
        gram = p[:, :, None] * self._gram * p.conj()[:, None, :]
        return float(np.max(np.abs(gram - np.eye(gram.shape[-1]))))

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x)
        two_b = self.bond_index.num_directed
        if x.ndim not in (1, 2) or x.shape[0] != two_b:
            raise ValidationError(f"operator acts on {two_b} bonds, got shape {x.shape}")
        index, coef = self.gather[0], self._weights
        x = x.astype(np.result_type(x, coef), copy=False)
        coef = coef.reshape(coef.shape + (1,) * (x.ndim - 1))
        y = x[index[:, 0]]
        y *= coef[:, 0]
        rows = np.empty_like(y)
        for j in range(1, index.shape[1]):
            # the indices are in range by construction; mode="raise" would
            # copy into a fresh buffer before writing to rows
            np.take(x, index[:, j], axis=0, out=rows, mode="clip")
            rows *= coef[:, j]
            y += rows
        return y

    def dense(self) -> np.ndarray:
        """The dense 2B x 2B matrix, by one scatter of the blocks."""
        bi = self.bond_index
        blocks = self.phases[bi.in_bonds][:, :, None] * self.blocks.transpose(0, 2, 1)
        m = np.zeros((bi.num_directed,) * 2, dtype=blocks.dtype)
        m[bi.in_bonds[:, :, None], bi.out_bonds[:, None, :]] = blocks
        return m
