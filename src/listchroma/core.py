"""Instance model, color partitioning, preprocessing, branching, and the lift to the root.

Vertices are dense integers 0..n-1 and adjacency is kept as one bitmask per
vertex, so stability tests and vertex-set algebra are single int operations.
Colors are opaque non-negative integers; they survive renumbering of vertices
unchanged. So every leaf of the search, however it was finished, yields a
coloring {node vertex: color} of its own instance, and lift_node_assignment
maps it through the node's merge_map and fixed pairs to the root vertices,
where list_coloring validates it once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

EPS = 1e-6


class _IdsError(ValueError):
    """A message template over vertex and color ids: str() is 0-based, one_based() 1-based."""

    def __init__(self, template: str, **ids: int):
        super().__init__(template.format(**ids))
        self.template = template
        self.ids = ids

    def one_based(self) -> str:
        return self.template.format(**{name: i + 1 for name, i in self.ids.items()})


class EmptyListError(_IdsError):
    """Some vertex ended up with an empty color list (trivially infeasible)."""

    def __init__(self, vertex: int):
        super().__init__("vertex {vertex} has an empty color list", vertex=vertex)
        self.vertex = vertex


class ColoringError(_IdsError):
    """A candidate assignment violates list membership or properness."""


class ReconstructionBug(RuntimeError):
    """Internal error: the solver built a coloring that fails validation."""


class NumericalFailure(RuntimeError):
    """The LP, pricing, a matching or a leaf read-off failed, or weights exceed float64."""


class SearchTimeout(Exception):
    """Raised internally when a solve deadline expires."""


class Deadline:
    """Wall-clock budget shared by the search and the pricing routines."""

    __slots__ = ("end",)

    def __init__(self, seconds: float | None):
        """None means no limit. A NaN would never expire and a negative budget is none."""
        if seconds is not None and not seconds >= 0:
            raise ValueError(f"time limit must be a number >= 0, got {seconds}")
        self.end = None if seconds is None else time.perf_counter() + seconds

    def expired(self) -> bool:
        return self.end is not None and time.perf_counter() >= self.end

    def check(self) -> None:
        if self.expired():
            raise SearchTimeout


def bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; adj[v] is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(n, tuple(masks))

    @cached_property
    def neighbors(self) -> tuple[list[int], ...]:
        """neighbors[v] lists the neighbors of v ascending, computed once per graph."""
        return tuple(bits(a) for a in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in bits(m))
        return out

    @cached_property
    def m(self) -> int:
        """The number of edges, computed once per graph."""
        return sum(a.bit_count() for a in self.adj) // 2


@dataclass(frozen=True)
class Instance:
    """A list-coloring instance: graph, colors with weights, per-vertex lists.

    Invariant: every color appears in at least one list and every list is a
    non-empty subset of `colors`. Use build_instance to construct.
    """

    graph: Graph
    colors: tuple[int, ...]
    weights: dict[int, int]
    lists: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return self.graph.n


def build_instance(
    graph: Graph,
    colors: Iterable[int],
    weights: Mapping[int, int],
    lists: Sequence[Iterable[int]],
) -> Instance:
    """Normalize raw data into an Instance, dropping colors used by no list."""
    declared = set(colors)
    if len(lists) != graph.n:
        raise ValueError(f"expected {graph.n} lists, got {len(lists)}")
    norm_lists = []
    used: set[int] = set()
    for v, lst in enumerate(lists):
        s = frozenset(lst)
        if not s:
            raise EmptyListError(v)
        extra = s - declared
        if extra:
            raise ValueError(f"list of vertex {v} references undeclared colors {sorted(extra)}")
        norm_lists.append(s)
        used |= s
    kept = tuple(sorted(used))
    w = {}
    for j in kept:
        if j not in weights:
            raise ValueError(f"no weight declared for color {j}")
        wj = int(weights[j])
        if wj != weights[j]:
            raise ValueError(f"non-integral weight for color {j}")
        if wj < 0:
            raise ValueError(f"negative weight for color {j}")
        w[j] = wj
    return Instance(graph, kept, w, tuple(norm_lists))


@dataclass(frozen=True)
class ColorPartition:
    """Partition of the colors into indistinguishability classes.

    Colors j and k share a class iff they have equal weight and identical
    vertex sets V_j = V_k (hence identical induced subgraphs). The class
    representative is its smallest color id.
    """

    reps: tuple[int, ...]
    class_members: dict[int, tuple[int, ...]]
    vertices: dict[int, tuple[int, ...]]
    vertex_mask: dict[int, int]
    bounded: frozenset[int]
    rep_of: dict[int, int]

    @cached_property
    def classes_of(self) -> tuple[list[int], ...]:
        """classes_of[v] lists the classes whose vertex set holds v, ascending.

        Computed once per partition. Every vertex has a nonempty list, so
        vertices 0..n-1 all appear.
        """
        out: tuple[list[int], ...] = tuple(
            [] for _ in range(max((m.bit_length() for m in self.vertex_mask.values()), default=0))
        )
        for k in self.reps:
            for v in self.vertices[k]:
                out[v].append(k)
        return out


def partition_colors(inst: Instance) -> ColorPartition:
    """Group indistinguishable colors; deterministic for identical instances."""
    groups: dict[tuple[int, int], list[int]] = {}
    vertex_masks = {j: 0 for j in inst.colors}
    for v, lst in enumerate(inst.lists):
        bit = 1 << v
        for j in lst:
            vertex_masks[j] |= bit
    for j in inst.colors:  # ascending, so the first member is the smallest
        key = (inst.weights[j], vertex_masks[j])
        groups.setdefault(key, []).append(j)
    reps = []
    members = {}
    verts = {}
    vmask = {}
    rep_of = {}
    bounded = set()
    for (w, mask), cols in groups.items():
        k = cols[0]
        reps.append(k)
        members[k] = tuple(cols)
        vmask[k] = mask
        verts[k] = tuple(bits(mask))
        for j in cols:
            rep_of[j] = k
        if mask.bit_count() >= len(cols) + 1:
            bounded.add(k)
    reps.sort()
    return ColorPartition(
        reps=tuple(reps),
        class_members=members,
        vertices=verts,
        vertex_mask=vmask,
        bounded=frozenset(bounded),
        rep_of=rep_of,
    )


@dataclass(frozen=True)
class NodeState:
    """A search node: its instance plus the maps that lift its colorings to the root.

    merge_map sends every still-live root vertex to its representative in the
    current instance. fixed holds (root vertex, color) pairs decided by
    singleton preprocessing, in root-vertex order; the weight of each fixed
    color is zeroed in the current instance so that LP bounds stay exact, and
    fixed_weight carries the root weight of the distinct fixed colors.

    Nothing mutates merge_map or the instance's weights once a NodeState holds
    them, so states may share those dicts.
    """

    instance: Instance
    merge_map: dict[int, int]
    fixed: tuple[tuple[int, int], ...]
    fixed_weight: int


def root_state(inst: Instance) -> NodeState:
    return NodeState(
        instance=inst,
        merge_map={v: v for v in range(inst.n)},
        fixed=(),
        fixed_weight=0,
    )


def _drop_vertices(
    adj: Sequence[int], lists: Sequence, merge_map: Mapping[int, int], drop: int
) -> tuple[tuple[int, ...], list, dict[int, int]]:
    """Remove the vertices in the bitmask drop and number the rest 0.. in their order.

    Returns the adjacency masks, the lists and the merge_map of the kept
    vertices; root vertices that map to a dropped vertex leave merge_map.
    """
    new_id = {x: i for i, x in enumerate(x for x in range(len(adj)) if not drop >> x & 1)}
    gone = bits(drop)[::-1]  # highest first, so each shift leaves the lower ids in place
    masks = []
    for x in new_id:
        m = adj[x]
        for u in gone:
            m = (m & ((1 << u) - 1)) | (m >> (u + 1)) << u
        masks.append(m)
    merge_map = {r: new_id[cur] for r, cur in merge_map.items() if cur in new_id}
    return tuple(masks), [lists[x] for x in new_id], merge_map


def preprocess_singletons(state: NodeState) -> NodeState | None:
    """Fix every vertex with a one-color list, to fixpoint, by unit propagation.

    Fixing vertex u to color j deletes j from the lists of u's neighbors,
    which may leave them one color to fix in turn, and zeroes j's weight in
    the residual instance (j is paid for once, in fixed_weight; later uses of
    j by non-neighbors are free). The fixed vertices are removed and the rest
    renumbered once, at the end. Every order of fixing reaches the same
    fixpoint. Returns None when a list empties, i.e. the subproblem has no
    list coloring, and state itself when no list has one color.
    """
    inst = state.instance
    work = [v for v, l in enumerate(inst.lists) if len(l) == 1]
    if not work:
        return state
    adj = inst.graph.adj
    lists = [set(l) for l in inst.lists]
    weights = dict(inst.weights)
    fixed_weight = state.fixed_weight
    color: dict[int, int] = {}  # fixed node vertex -> its color
    while work:
        u = work.pop()
        (j,) = lists[u]
        color[u] = j
        fixed_weight += weights[j]
        weights[j] = 0
        for z in bits(adj[u]):
            if j in lists[z]:
                lists[z].discard(j)
                if len(lists[z]) == 1:
                    work.append(z)
                elif not lists[z]:
                    return None

    fixed = [(r, color[cur]) for r, cur in state.merge_map.items() if cur in color]
    drop = sum(1 << u for u in color)
    masks, lists, merge_map = _drop_vertices(adj, lists, state.merge_map, drop)
    return NodeState(
        instance=build_instance(Graph(len(lists), masks), inst.colors, weights, lists),
        merge_map=merge_map,
        fixed=tuple(sorted([*state.fixed, *fixed])),
        fixed_weight=fixed_weight,
    )


def _check_branch_pair(state: NodeState, u: int, v: int) -> None:
    inst = state.instance
    if u == v:
        raise ValueError("branching pair must be two distinct vertices")
    if inst.graph.has_edge(u, v):
        raise ValueError(f"branching pair ({u},{v}) is adjacent")
    if not (inst.lists[u] & inst.lists[v]):
        raise ValueError(f"branching pair ({u},{v}) has disjoint lists")


def branch_differ(state: NodeState, u: int, v: int) -> NodeState:
    """Child where u and v get different colors: add the edge (u,v)."""
    _check_branch_pair(state, u, v)
    inst = state.instance
    adj = list(inst.graph.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return replace(state, instance=replace(inst, graph=Graph(inst.n, tuple(adj))))


def branch_same(state: NodeState, u: int, v: int) -> NodeState:
    """Child where u and v share a color: merge v into u, intersect lists."""
    _check_branch_pair(state, u, v)
    inst = state.instance
    adj = list(inst.graph.adj)
    adj[u] |= adj[v]
    for x in bits(adj[v]):
        adj[x] |= 1 << u
    lists = list(inst.lists)
    lists[u] &= lists[v]
    merge_map = {r: u if cur == v else cur for r, cur in state.merge_map.items()}
    masks, lists, merge_map = _drop_vertices(adj, lists, merge_map, 1 << v)
    return replace(
        state,
        instance=build_instance(Graph(inst.n - 1, masks), inst.colors, inst.weights, lists),
        merge_map=merge_map,
    )


@dataclass(frozen=True)
class ListColoring:
    """A validated total coloring of the root instance."""

    assignment: tuple[tuple[int, int], ...]
    weight: int

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignment)


def validate_coloring(inst: Instance, assignment: Mapping[int, int]) -> int:
    """Check list membership and properness; return the active-color weight."""
    if len(assignment) != inst.n or set(assignment) != set(range(inst.n)):
        raise ColoringError("assignment is not total over the vertices")
    for v in range(inst.n):
        j = assignment[v]
        if j not in inst.lists[v]:
            raise ColoringError("color {j} not in the list of vertex {v}", j=j, v=v)
    for u, v in inst.graph.edges():
        if assignment[u] == assignment[v]:
            raise ColoringError("edge ({u},{v}) is monochromatic", u=u, v=v)
    return sum(inst.weights[j] for j in set(assignment.values()))


def list_coloring(inst: Instance, assignment: Mapping[int, int]) -> ListColoring:
    weight = validate_coloring(inst, assignment)
    return ListColoring(tuple(sorted(assignment.items())), weight)


def lift_node_assignment(
    node_assignment: Mapping[int, int], state: NodeState, root: Instance
) -> ListColoring:
    """Map a coloring of the node instance back to the root vertices."""
    result: dict[int, int] = {}
    for r, j in state.fixed:
        if r in result:
            raise ReconstructionBug(f"root vertex {r} fixed twice")
        result[r] = j
    for r, cur in state.merge_map.items():
        if cur not in node_assignment:
            raise ReconstructionBug(f"node vertex {cur} left uncolored")
        if r in result:
            raise ReconstructionBug(f"root vertex {r} both fixed and live")
        result[r] = node_assignment[cur]
    try:
        return list_coloring(root, result)
    except ColoringError as exc:
        raise ReconstructionBug(str(exc)) from exc
