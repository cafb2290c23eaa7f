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

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .bonds import BondIndex
from .errors import ParameterError, ValidationError, WorkBudgetError
from .graphs import Graph, girth

__all__ = [
    "CensusReport",
    "cycle_bond_census",
    "near_cycle_census",
    "census_report",
    "lemma_sides",
    "min_return_lengths",
]

DEFAULT_WORK_BUDGET = 100_000_000


def _search_cost(g: Graph, cap: int) -> int:
    """Bound on the bonds min_return_lengths(bi, cap) visits:
    B * 2 * sum_{e=0}^{ceil(cap/2)} (d-1)^e.

    Per root, round s = 1 .. cap-1 grows the smaller of forward layer i and
    backward layer j, i + j = s, which holds at most (d-1)^floor(s/2) bonds,
    by their d-1 successors each.  So each power (d-1)^e, 1 <= e <=
    ceil(cap/2), is visited at most twice, and the d seed bonds fit in the
    e = 0 terms.
    """
    return g.B * 2 * sum((g.d - 1) ** e for e in range(-(-cap // 2) + 1))


def _check_budget(g: Graph, cap: int, work_budget: int) -> None:
    cost = _search_cost(g, cap)
    if cost > work_budget:
        raise WorkBudgetError(
            f"census search to length {cap} estimated cost {cost} exceeds budget {work_budget}"
        )


def min_return_lengths(bi: BondIndex, cap: int) -> list[int | None]:
    """For every directed bond, the length of the shortest closed
    non-backtracking walk through it, or None if longer than cap.

    Bidirectional breadth-first search over the non-backtracking successor
    relation, meeting in the middle.  Forward layer i holds the bonds first
    reached i >= 1 steps after b0; backward layer j the bonds that first
    reach b0 in j steps, found as forward layer j from rev(b0) mapped back
    through rev (c -> c' is a step exactly when rev(c') -> rev(c) is).  Each
    round grows the smaller frontier by one layer and checks its new bonds
    against the other side.  Once the layers reach i and j without a
    meeting, every closed walk through b0 is longer than i + j, because
    one of its bonds would lie in both searches; so the first meeting,
    made on growing to i + j, is the shortest return.  The stamp arrays are
    allocated once: a bond's entry is current when its stamp is b0.
    """
    two_b = bi.num_directed
    succ = bi.successors.tolist()
    rev = bi.rev.tolist()
    # (stamp, distance) per side; the backward side is indexed by the
    # reversed bond
    fwd = ([-1] * two_b, [0] * two_b)
    bwd = ([-1] * two_b, [0] * two_b)
    out: list[int | None] = [None] * two_b
    for b0 in range(bi.B):
        r0 = rev[b0]
        bwd[0][r0], bwd[1][r0] = b0, 0
        for c in succ[b0]:
            fwd[0][c], fwd[1][c] = b0, 1
        fwd_front, bwd_front = list(succ[b0]), [r0]
        i, j = 1, 0
        found = None
        while found is None and i + j < cap and fwd_front and bwd_front:
            if len(fwd_front) <= len(bwd_front):
                i += 1
                fwd_front, found = _grow(fwd_front, i, b0, fwd, bwd, succ, rev)
            else:
                j += 1
                bwd_front, found = _grow(bwd_front, j, b0, bwd, fwd, succ, rev)
        if found is not None:
            # a closed walk through b0 reverses to one through rev(b0)
            out[b0] = found
            out[r0] = found
    return out


def _grow(front, layer, b0, side, other, succ, rev):
    """Grow one side of the search from b0 by a layer: the new bonds, and
    the return length if one of them meets the other side."""
    stamp, dist = side
    other_stamp, other_dist = other
    new = []
    for b in front:
        for c in succ[b]:
            if stamp[c] != b0:
                stamp[c] = b0
                dist[c] = layer
                new.append(c)
                if other_stamp[rev[c]] == b0:
                    return new, layer + other_dist[rev[c]]
    return new, None


def _cycle_edges(g: Graph, ret: list[int | None], t: int) -> frozenset[int]:
    return frozenset(e for e in range(g.B) if ret[e] is not None and ret[e] <= t)


def cycle_bond_census(
    g: Graph, t: int, work_budget: int = DEFAULT_WORK_BUDGET
) -> frozenset[int]:
    """Edge indices of all bonds on a closed non-backtracking walk of
    length <= t."""
    if t < 3:
        raise ParameterError(f"cycle census horizon t={t} must be >= 3")
    _check_budget(g, t, work_budget)
    return _cycle_edges(g, min_return_lengths(g.bond_index, t), t)


def near_cycle_census(
    g: Graph, t: int, work_budget: int = DEFAULT_WORK_BUDGET
) -> frozenset[int]:
    """Directed bond indices within non-backtracking distance t1 of a closed
    walk of length <= 2 t2, for some t1 + t2 = t with t2 >= 2."""
    if t < 2:
        raise ParameterError(f"near-cycle census horizon t={t} must be >= 2")
    _check_budget(g, 2 * t, work_budget)
    bi = g.bond_index
    return _near_cycle_bonds(bi, min_return_lengths(bi, 2 * t), t)


def _near_cycle_bonds(bi: BondIndex, ret: list[int | None], t: int) -> frozenset[int]:
    """Near-cycle census at t from the return lengths up to cap 2t.

    Searches backwards from the cycle bonds; the predecessors of c in the
    non-backtracking bond digraph are rev[succ(rev c)].
    """
    two_b = bi.num_directed
    succ = bi.successors.tolist()
    rev = bi.rev.tolist()
    members: set[int] = set()
    for t2 in range(2, t + 1):
        t1 = t - t2
        sources = [b for b in range(two_b) if ret[b] is not None and ret[b] <= 2 * t2]
        if not sources:
            continue
        dist = [-1] * two_b
        queue = deque()
        for b in sources:
            dist[b] = 0
            queue.append(b)
        members.update(sources)
        while queue:
            b = queue.popleft()
            if dist[b] >= t1:
                continue
            for c in succ[rev[b]]:
                a = rev[c]
                if dist[a] < 0:
                    dist[a] = dist[b] + 1
                    queue.append(a)
                    members.add(a)
    return frozenset(members)


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


def census_report(g: Graph, t: int, work_budget: int = DEFAULT_WORK_BUDGET) -> CensusReport:
    """Both censuses at horizon t from one return-length search at 2t."""
    if t < 2:
        raise ParameterError(f"census horizon t={t} must be >= 2")
    _check_budget(g, 2 * t, work_budget)
    bi = g.bond_index
    ret = min_return_lengths(bi, 2 * t)
    c_set = _cycle_edges(g, ret, t) if t >= 3 else frozenset()
    t_set = _near_cycle_bonds(bi, ret, t)
    gth = girth(g)
    if gth is not None and t < gth and c_set:
        raise ValidationError(
            f"cycle census non-empty at t={t} below girth {gth}; census is corrupt"
        )
    return CensusReport(t=t, c_set=c_set, t_set=t_set)


def lemma_sides(
    g: Graph, t: int, work_budget: int = DEFAULT_WORK_BUDGET
) -> tuple[int, Fraction]:
    """Exact integer sides of the census inequality at horizon t.

    Returns (|near(t)|, (d-1)^(t-1)/(d-2) * |directed cycle bonds(2t)|),
    both from one return-length search at 2t; the left side never exceeds
    the right.
    """
    if g.d < 3:
        raise ParameterError("census inequality needs d >= 3")
    if t < 2:
        raise ParameterError(f"census horizon t={t} must be >= 2")
    _check_budget(g, 2 * t, work_budget)
    bi = g.bond_index
    ret = min_return_lengths(bi, 2 * t)
    t_count = len(_near_cycle_bonds(bi, ret, t))
    c_directed = 2 * len(_cycle_edges(g, ret, 2 * t))
    bound = Fraction((g.d - 1) ** (t - 1) * c_directed, g.d - 2)
    return t_count, bound
