"""Undirected graphs with exact sparsity certificates and the two-copy bipartite reduction.

Sparsity (maximum subgraph density) is found at every size by one
method: iterated improvement with Goldberg's minimum-cut density test,
whose cut comes from one shortest-augmenting-path max-flow function.
The same function, which also returns each arc's flow, answers the
rounding relaxation's cover cuts in `blockset`.

Everything here is deterministic: vertices are strings, all canonical
orders are lexicographic, and all numeric quantities are `Fraction`s.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .errors import InputError, InternalInvariantError, PreconditionError

Edge = tuple[str, str]


def edge_key(u: str, v: str) -> Edge:
    """Canonical (sorted) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: sorted vertex tuple plus sorted canonical edges."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @staticmethod
    def build(edges: Iterable[tuple[str, str]] = (), vertices: Iterable[str] = ()) -> "Graph":
        """Normalize and validate raw vertex/edge iterables into a Graph.

        Endpoints are added to the vertex set automatically.  Duplicate
        edges collapse; self-loops and whitespace-bearing names are
        rejected.
        """
        vset = set(vertices)
        eset: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u!r}")
            eset.add(edge_key(u, v))
            vset.add(u)
            vset.add(v)
        for name in vset:
            if not name or any(ch.isspace() for ch in name):
                raise InputError(f"invalid vertex name {name!r}")
        return Graph(tuple(sorted(vset)), tuple(sorted(eset)))

    @cached_property
    def adjacency(self) -> Mapping[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self.adjacency[v]

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])

    def without_vertex(self, v: str) -> "Graph":
        """Graph with `v` and all incident edges removed."""
        return Graph(
            tuple([w for w in self.vertices if w != v]),
            tuple([e for e in self.edges if v not in e]),
        )

    def without_edges(self, drop: Iterable[Edge]) -> "Graph":
        """Graph with the given edges removed; the vertex set is kept."""
        gone = {edge_key(*e) for e in drop}
        return Graph(self.vertices, tuple([e for e in self.edges if e not in gone]))

    def induced_edge_count(self, subset: Iterable[str]) -> int:
        s = set(subset)
        return sum(1 for u, v in self.edges if u in s and v in s)


def uncovered_edge(edges: Iterable[Edge], x: Mapping[str, Fraction]) -> Edge | None:
    """First edge uv with x[u] + x[v] < 1, or None when x covers every edge."""
    return next(((u, v) for u, v in edges if x[u] + x[v] < 1), None)


# ---------------------------------------------------------------------------
# parsing / serialization


def parse_edge_list(text: str) -> Graph:
    """Parse the whitespace edge-list format: one "u v" pair per line.

    Blank lines and lines starting with "#" are ignored.  Duplicate edge
    lines collapse to a single edge.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {raw!r}")
        u, v = parts
        if u == v:
            raise InputError(f"line {lineno}: self-loop at vertex {u!r}")
        edges.append((u, v))
    return Graph.build(edges)


def edge_list_text(g: Graph) -> str:
    """Serialize to the edge-list format (isolated vertices are not representable)."""
    return "".join(f"{u} {v}\n" for u, v in g.edges)


def json_pairs(obj: dict, key: str) -> tuple[tuple[str, str], ...]:
    """The list of vertex-name pairs under `key` of a JSON object."""
    items = obj[key]
    if not isinstance(items, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e) for e in items
    ):
        raise InputError(f"'{key}' must be a list of vertex-name pairs")
    return tuple([(u, v) for u, v in items])


def graph_from_json_obj(obj: object) -> Graph:
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise InputError("graph JSON must be an object with 'vertices' and 'edges'")
    vertices = obj["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InputError("'vertices' must be a list of strings")
    return Graph.build(json_pairs(obj, "edges"), vertices)


def _dot_id(v: str) -> str:
    """`v` as a quoted DOT ID: a backslash and a double quote are escaped."""
    return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Graph, dashed_edges: Iterable[Edge] = (), name: str = "G") -> str:
    """DOT export; edges listed in `dashed_edges` are styled dashed."""
    dashed = {edge_key(*e) for e in dashed_edges}
    lines = [f"graph {name} {{"]
    for v in g.vertices:
        lines.append(f"  {_dot_id(v)};")
    for u, v in g.edges:
        style = " [style=dashed]" if (u, v) in dashed else ""
        lines.append(f"  {_dot_id(u)} -- {_dot_id(v)}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sparsity


@dataclass(frozen=True)
class Sparsity:
    """Exact maximum induced-subgraph density, clamped below at 1.

    `density` is max over nonempty S of |E(G[S])| / |S| (0 for edgeless
    graphs); `omega` is max(1, density).  `witness` attains `density`
    whenever the graph has at least one edge.
    """

    omega: Fraction
    density: Fraction
    witness: tuple[str, ...] | None


def compute_sparsity(g: Graph) -> Sparsity:
    """Exact maximum subgraph density by iterated improvement with a max-flow density test."""
    if g.m == 0:
        return Sparsity(Fraction(1), Fraction(0), None)
    density, witness = _densest_subset_flow(g)
    return Sparsity(max(Fraction(1), density), density, witness)


def _min_cut(
    n: int, arcs: Iterable[tuple[int, int, int, int]], s: int, t: int
) -> tuple[int, set[int], list[int]]:
    """Maximum s-t flow, the source side of the minimal minimum cut, and
    the flow on each arc.

    Each arc (u, v, cap, back_cap) is an arc u->v paired with its reverse
    v->u.  Shortest augmenting paths (Edmonds-Karp) are pushed until a
    search fails to reach t; the vertices that search reaches are the
    source side, which is the same for every maximum flow.  The flow on
    an arc is its net flow u->v, at most cap and at least -back_cap,
    listed in the order of `arcs`.
    """
    graph: list[list[list[int]]] = [[] for _ in range(n)]  # [to, cap, index of reverse]
    forward = []  # (residual arc u->v, cap) of each arc
    for u, v, cap, back_cap in arcs:
        arc = [v, cap, len(graph[v])]
        graph[u].append(arc)
        graph[v].append([u, back_cap, len(graph[u]) - 1])
        forward.append((arc, cap))
    flow = 0
    while True:
        via: list[tuple[int, list[int]] | None] = [None] * n  # (tail, arc) that reached each node
        via[s] = (s, [])
        reached = [s]
        for u in reached:  # breadth first: the list grows while it is read
            for arc in graph[u]:
                if arc[1] > 0 and via[arc[0]] is None:
                    via[arc[0]] = (u, arc)
                    reached.append(arc[0])
            if via[t] is not None:
                break
        else:
            return flow, set(reached), [cap - arc[1] for arc, cap in forward]
        path = []
        v = t
        while v != s:
            v, arc = via[v]
            path.append(arc)
        push = min(arc[1] for arc in path)
        for arc in path:
            arc[1] -= push
            graph[arc[0]][arc[2]][1] += push
        flow += push


def _density_improvement(g: Graph, guess: Fraction) -> tuple[str, ...] | None:
    """Vertex set with density strictly above `guess`, or None.

    Goldberg's min-cut construction, with capacities scaled by the guess
    denominator so the flow network is integral: s->i at deg(i)*q, i->t
    at 2p, and q each way along every edge.  A cut below 2*m*q certifies
    a subset with |E(S)| - guess*|S| > 0.  The path s->i->t carries
    min(deg(i)*q, 2p) in every maximum flow, so it is counted up front
    and only the larger arc's excess enters the network; every cut moves
    by the same constant, so the minimal minimum cut is unchanged.
    """
    p, q = guess.numerator, guess.denominator
    order = g.vertices
    index = {v: i for i, v in enumerate(order)}
    s, t = g.n, g.n + 1
    netted = 0
    arcs = []
    for i, v in enumerate(order):
        source_cap, sink_cap = g.degree(v) * q, 2 * p
        netted += min(source_cap, sink_cap)
        if source_cap > sink_cap:
            arcs.append((s, i, source_cap - sink_cap, 0))
        elif sink_cap > source_cap:
            arcs.append((i, t, sink_cap - source_cap, 0))
    for u, v in g.edges:
        arcs.append((index[u], index[v], q, q))
    flow, side, _ = _min_cut(g.n + 2, arcs, s, t)
    if netted + flow >= 2 * g.m * q:
        return None
    subset = tuple(order[i] for i in range(g.n) if i in side)
    return subset or None


def _densest_subset_flow(g: Graph) -> tuple[Fraction, tuple[str, ...]]:
    witness = g.vertices
    density = Fraction(g.m, g.n)
    while True:
        better = _density_improvement(g, density)
        if better is None:
            return density, witness
        new_density = Fraction(g.induced_edge_count(better), len(better))
        if new_density <= density:  # cannot happen for a correct cut
            raise InternalInvariantError("density search failed to improve")
        witness, density = better, new_density


# ---------------------------------------------------------------------------
# bipartiteness and the two-copy reduction


def is_bipartite(g: Graph) -> dict[str, int] | None:
    """Two-coloring with colors in {0, 1}, or None if an odd cycle exists.

    Deterministic: BFS from vertices in lexicographic order, the start
    of each component colored 0.
    """
    color: dict[str, int] = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            for w in g.neighbors(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    q.append(w)
                elif color[w] == color[u]:
                    return None
    return color


def _copy_name(v: str, side: int) -> str:
    return f"{v}#{side}"


@dataclass(frozen=True)
class DoubledGraph:
    """Bipartite double cover: each vertex u splits into u#1/u#2, each edge into two."""

    host: Graph
    side_map: Mapping[str, tuple[str, str]]
    edge_map: Mapping[Edge, tuple[Edge, Edge]]


def bipartite_double(g: Graph) -> DoubledGraph:
    side_map = {v: (_copy_name(v, 1), _copy_name(v, 2)) for v in g.vertices}
    edge_map: dict[Edge, tuple[Edge, Edge]] = {}
    host_edges = []
    for u, v in g.edges:
        e1 = edge_key(_copy_name(u, 1), _copy_name(v, 2))
        e2 = edge_key(_copy_name(u, 2), _copy_name(v, 1))
        edge_map[(u, v)] = (e1, e2)
        host_edges.extend([e1, e2])
    host_vertices = [c for pair in side_map.values() for c in pair]
    host = Graph.build(host_edges, host_vertices)
    return DoubledGraph(host, side_map, edge_map)


def pull_back(
    d: DoubledGraph,
    x_host: Mapping[str, Fraction],
    b_host: Iterable[Edge],
) -> tuple[dict[str, Fraction], tuple[Edge, ...]]:
    """Map a host allocation/edge-set pair back to the original graph.

    Each original vertex receives the average of its two copies; an
    original edge is selected iff either of its copies was.  A bad pair
    is the solver's fault and raises PreconditionError.
    """
    b_set = {edge_key(*e) for e in b_host}
    unknown = b_set - d.host.edge_set
    if unknown:
        raise PreconditionError(f"edges not in host graph: {sorted(unknown)}")
    x: dict[str, Fraction] = {}
    for v, (c1, c2) in d.side_map.items():
        a, b = Fraction(x_host.get(c1, 0)), Fraction(x_host.get(c2, 0))
        if a < 0 or b < 0:
            raise PreconditionError(f"negative host allocation at copies of {v!r}")
        x[v] = (a + b) / 2
    pulled = tuple(sorted(e for e, (h1, h2) in d.edge_map.items() if h1 in b_set or h2 in b_set))
    return x, pulled
