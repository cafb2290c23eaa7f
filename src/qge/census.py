"""Short-cycle censuses on regular graphs.

Two sets are computed per horizon t:

* cycle bonds: undirected edges lying on a closed non-backtracking walk of
  length at most t (edge indices into Graph.edges);
* near-cycle bonds: directed bonds b0 such that for some split t1 + t2 = t
  with t2 >= 2 there is a non-backtracking walk of length <= t1 from b0 to a
  directed bond lying on a closed walk of length <= 2 t2.

Distance from a directed bond to a cycle is measured by forward
non-backtracking extension ending on a directed cycle bond.  Counted this
way, |near(t)| <= (d-1)^(t-1)/(d-2) * |cycle bonds(2t)| holds exactly as an
integer inequality when the right-hand census counts directed bonds
(2 bonds per edge); `lemma_sides` packages that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._checks import integer
from .bonds import BondIndex
from .errors import ValidationError, WorkBudgetError
from .graphs import Graph, girth

__all__ = [
    "CensusReport",
    "cycle_bond_census",
    "near_cycle_census",
    "census_report",
    "lemma_sides",
    "min_return_lengths",
]

# about a minute of search at the slowest rate measured on a 2-core Xeon,
# 1.9e7 bound units (see _search_cost) per second; min_return_lengths
# reads it at the call
DEFAULT_WORK_BUDGET = 1_000_000_000

# root bonds searched together, fewer when their stamps, 2 * block * 2B
# bytes, would exceed _STAMP_BYTES
_BLOCK = 128
_STAMP_BYTES = 1 << 28


def _search_cost(bi: BondIndex, cap: int) -> int:
    """Bound on the bonds min_return_lengths(bi, cap) visits:
    B * 2 * sum_{e=0}^{ceil(cap/2)} (d-1)^e.

    Per root the forward side holds at most (d-1)^i walks at depth
    i <= ceil(cap/2) and the backward side (d-1)^j at depth
    j <= floor(cap/2), each bond found by one successor scan; so each power
    (d-1)^e is visited at most twice, the root and its d-1 successors
    (the seeds) included.
    """
    return bi.B * 2 * sum(bi.successors.shape[1] ** e for e in range(-(-cap // 2) + 1))


def _predecessors(bi: BondIndex) -> np.ndarray:
    """(2B, d-1) array whose row c lists the bonds b with c in successors[b]:
    b -> c is a non-backtracking step exactly when rev(c) -> rev(b) is."""
    return bi.rev[bi.successors[bi.rev]]


def min_return_lengths(bi: BondIndex, cap: int) -> np.ndarray:
    """For every directed bond, the length of the shortest closed
    non-backtracking walk through it, as a float64 array with nan where it
    is longer than cap, which no comparison admits.  A search whose
    _search_cost exceeds DEFAULT_WORK_BUDGET raises WorkBudgetError before
    any block runs.

    Bidirectional breadth-first search over the non-backtracking successor
    relation, meeting in the middle, for up to _BLOCK root bonds b0 < B at
    a time on numpy arrays.  Forward layer i holds the walks of i >= 1 steps from
    b0; backward layer j the walks of j steps that end on b0, grown through
    the predecessors.  Each round grows the forward side while i <= j and
    the backward side otherwise, so round s = i + j reaches depths
    ceil(s/2) and floor(s/2), and checks each new bond against the other
    side's stamps.  Once round s - 1 ends without a meeting, every closed
    walk through b0 is longer than s - 1, because its bond at forward depth
    ceil(L/2) would have met the other side in round L; so every meeting in
    round s is a return of length exactly s, and the search records s and
    drops b0 from both sides.  Layers keep every walk, repeats included, so
    that bond is there; and the stamps need only say which bonds a side has
    reached, not at what depth.  They are one uint8 array per side, keyed by
    (root slot, bond) and allocated once: an entry is current when it holds
    the block's generation, and both arrays are cleared only when the
    generation wraps.  A closed walk through b0 reverses to one through
    rev(b0), which gets the same length.
    """
    cap = integer(cap, 0, "census cap")
    cost = _search_cost(bi, cap)
    if cost > DEFAULT_WORK_BUDGET:
        raise WorkBudgetError(
            f"census search to length {cap} estimated cost {cost} "
            f"exceeds budget {DEFAULT_WORK_BUDGET}"
        )
    two_b = bi.num_directed
    steps = (bi.successors, _predecessors(bi))
    block = max(1, min(_BLOCK, bi.B, _STAMP_BYTES // (2 * two_b)))
    stamps = np.zeros((2, block * two_b), dtype=np.uint8)
    ret = np.zeros(two_b)
    for count, first in enumerate(range(0, bi.B, block)):
        gen = count % 255 + 1
        if gen == 1:
            stamps[:] = 0
        roots = np.arange(first, min(first + block, bi.B))
        ret[roots] = _block_returns(roots, cap, steps, stamps, gen)
    ret[bi.rev[: bi.B]] = ret[: bi.B]
    ret[ret == 0] = np.nan
    return ret


def _block_returns(roots, cap, steps, stamps, gen) -> np.ndarray:
    """Return lengths up to cap of a block of roots (0: none).  A frontier
    is (keys, bonds), keys = slot * 2B + bond for the root's slot in the
    block."""
    two_b = len(steps[0])
    found = np.zeros(len(roots), dtype=np.int64)
    slots = np.arange(len(roots)) * two_b
    succ = steps[0][roots]
    fronts = [((slots[:, None] + succ).ravel(), succ.ravel()), (slots + roots, roots)]
    for side, (keys, _) in enumerate(fronts):
        stamps[side][keys] = gen
    depth = [1, 0]
    while depth[0] + depth[1] < cap:
        side = 0 if depth[0] <= depth[1] else 1
        depth[side] += 1
        keys, bonds = fronts[side]
        alive = found[keys // two_b] == 0
        if not alive.any():
            break
        keys, bonds = _advance(keys[alive], bonds[alive], steps[side])
        met = stamps[1 - side][keys] == gen
        if depth[0] + depth[1] < cap:
            stamps[side][keys] = gen
            fronts[side] = (keys, bonds)
        found[keys[met] // two_b] = depth[0] + depth[1]
    return found


def _advance(keys, bonds, step):
    """The next layer of a frontier: every walk extended by each bond in
    its row of `step`, keeping its root's slot."""
    nxt = step.take(bonds, axis=0).ravel()
    return np.repeat(keys - bonds, step.shape[1]) + nxt, nxt


def _cycle_edges(ret: np.ndarray, B: int, t: int) -> frozenset[int]:
    return frozenset(np.flatnonzero(ret[:B] <= t).tolist())


def cycle_bond_census(g: Graph, t: int) -> frozenset[int]:
    """Edge indices of all bonds on a closed non-backtracking walk of
    length <= t."""
    t = integer(t, 3, "cycle census horizon t")
    return _cycle_edges(min_return_lengths(g.bond_index, t), g.B, t)


def near_cycle_census(g: Graph, t: int) -> frozenset[int]:
    """Directed bond indices within non-backtracking distance t1 of a closed
    walk of length <= 2 t2, for some t1 + t2 = t with t2 >= 2."""
    t = integer(t, 2, "near-cycle census horizon t")
    bi = g.bond_index
    return _near_cycle_bonds(bi, min_return_lengths(bi, 2 * t), t)


def _near_cycle_bonds(bi: BondIndex, ret: np.ndarray, t: int) -> frozenset[int]:
    """Near-cycle census at t from the return lengths up to cap 2t.

    One breadth-first search backwards over whole frontier arrays, whose
    level counts t1 + t2: a bond c with ret[c] <= 2t joins at level
    max(2, ceil(ret[c] / 2)), the least t2 with ret[c] <= 2 t2, and each
    level adds the predecessors of the last.  A bond is near exactly when
    it is reached by level t.
    """
    pred = _predecessors(bi)
    start = np.maximum(2, np.ceil(ret / 2))
    reached = start == 2
    front = np.flatnonzero(reached)
    for level in range(3, t + 1):
        layer = start == level
        layer[pred[front]] = True
        layer &= ~reached
        reached |= layer
        front = np.flatnonzero(layer)
    return frozenset(np.flatnonzero(reached).tolist())


@dataclass(frozen=True)
class CensusReport:
    """Both censuses at one horizon t (edge indices / directed bond indices)."""

    t: int
    c_set: frozenset[int]
    t_set: frozenset[int]

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "c_bonds": sorted(self.c_set),
            "t_bonds": sorted(self.t_set),
        }


def census_report(g: Graph, t: int) -> CensusReport:
    """Both censuses at horizon t from one return-length search at 2t."""
    t = integer(t, 2, "census horizon t")
    bi = g.bond_index
    ret = min_return_lengths(bi, 2 * t)
    c_set = _cycle_edges(ret, g.B, t) if t >= 3 else frozenset()
    t_set = _near_cycle_bonds(bi, ret, t)
    # a closed walk of length <= t holds a cycle of length <= t, and the
    # shortest cycle is such a walk
    gth = girth(g)
    if bool(c_set) != (gth is not None and gth <= t):
        raise ValidationError(
            f"cycle census at t={t} has {len(c_set)} edges against girth {gth}; census is corrupt"
        )
    return CensusReport(t=t, c_set=c_set, t_set=t_set)


def lemma_sides(g: Graph, t: int) -> tuple[int, Fraction]:
    """Exact integer sides of the census inequality at horizon t.

    Returns (|near(t)|, (d-1)^(t-1)/(d-2) * |directed cycle bonds(2t)|),
    both from one return-length search at 2t; the left side never exceeds
    the right.
    """
    d = integer(g.d, 3, "census inequality degree d")
    t = integer(t, 2, "census horizon t")
    bi = g.bond_index
    ret = min_return_lengths(bi, 2 * t)
    t_count = len(_near_cycle_bonds(bi, ret, t))
    c_directed = 2 * len(_cycle_edges(ret, g.B, 2 * t))
    bound = Fraction((d - 1) ** (t - 1) * c_directed, d - 2)
    return t_count, bound
