"""Simple undirected graphs with exact, deterministic primitives.

Vertices are the integers ``0..n-1``.  Graphs are immutable: every
operation that changes a graph returns a new one.  Parsing supports the
graph6 interchange format and a plain edge-list text format.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple

Edge = tuple[int, int]

# graph6 encodes the vertex count in at most 18 bits here; this cap keeps
# payload allocation sane and rejects absurd headers early.
MAX_GRAPH6_VERTICES = 64000


class GraphParseError(ValueError):
    """Raised when graph6 or edge-list input is malformed."""


def _normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        normalized: set[Edge] = set()
        # _normalize_edge inlined: this loop runs once per edge of every
        # subgraph the lemma suite deletes a vertex from
        for u, v in edges:
            if u < v:
                e = (u, v)
            elif u > v:
                e = (v, u)
            else:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= e[0] and e[1] < n):
                raise ValueError(f"edge {e} out of range for n={n}")
            normalized.add(e)
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in normalized:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))
        # tuple() of a list, not of a generator: growing a tuple from an
        # iterator reallocates it, and over many graphs that fragments the
        # heap (peak RSS kept rising over repeated analyze passes)
        object.__setattr__(self, "adj", tuple([frozenset(s) for s in adj]))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Graph is immutable")

    # pickle support: rebuild from the canonical constructor arguments so
    # worker processes see an identical object.
    def __reduce__(self):
        return (Graph, (self.n, tuple(sorted(self.edges))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    @property
    def num_edges(self) -> int:
        return len(self.edges)


# ---------------------------------------------------------------------------
# small constructors


def empty_graph(n: int) -> Graph:
    return Graph(n)


def path_graph(n: int) -> Graph:
    """Path on ``n`` vertices (n-1 edges)."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n`` vertices; requires n >= 3."""
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Star with one center (vertex 0) and ``leaves`` pendant vertices."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; vertex blocks are laid out in argument order."""
    offset = 0
    edges: list[Edge] = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(offset, edges)


# ---------------------------------------------------------------------------
# graph6 format

GRAPH6_HEADER = ">>graph6<<"


def _g6_triangle_order(n: int) -> Iterable[Edge]:
    # bit order of the upper triangle: column by column, (0,1), (0,2),
    # (1,2), (0,3), ... as fixed by the graph6 format.
    for j in range(1, n):
        for i in range(j):
            yield (i, j)


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 string (optional ``>>graph6<<`` header allowed).

    Errors mention the byte offset of the first offending byte.
    """
    if isinstance(text, str):
        data = text.encode("ascii", errors="backslashreplace")
    else:
        data = bytes(text)
    base = 0
    if data.startswith(GRAPH6_HEADER.encode()):
        base = len(GRAPH6_HEADER)
        data = data[base:]
    data = data.rstrip(b"\r\n")
    if not data:
        raise GraphParseError("graph6: empty input")
    for k, byte in enumerate(data):
        if not (63 <= byte <= 126):
            raise GraphParseError(
                f"graph6: invalid byte 0x{byte:02x} at offset {base + k}"
            )
    # vertex count
    if data[0] != 126:  # ordinary single-byte size, n <= 62
        n = data[0] - 63
        pos = 1
    elif len(data) >= 2 and data[1] == 126:
        raise GraphParseError(
            f"graph6: 8-byte size header at offset {base} exceeds the "
            f"supported maximum of {MAX_GRAPH6_VERTICES} vertices"
        )
    else:
        if len(data) < 4:
            raise GraphParseError(
                f"graph6: truncated 4-byte size header at offset {base}"
            )
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    if n > MAX_GRAPH6_VERTICES:
        raise GraphParseError(
            f"graph6: vertex count {n} exceeds the supported maximum "
            f"of {MAX_GRAPH6_VERTICES}"
        )
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    payload = data[pos:]
    if len(payload) != need:
        raise GraphParseError(
            f"graph6: expected {need} payload bytes for n={n}, got "
            f"{len(payload)} (payload starts at offset {base + pos})"
        )
    edges: list[Edge] = []
    bit = 0
    for (i, j) in _g6_triangle_order(n):
        byte = payload[bit // 6]
        if (byte - 63) & (1 << (5 - bit % 6)):
            edges.append((i, j))
        bit += 1
    # canonical encodings zero-pad the final byte
    while bit < 6 * need:
        byte = payload[bit // 6]
        if (byte - 63) & (1 << (5 - bit % 6)):
            raise GraphParseError(
                f"graph6: nonzero padding bit in final byte at offset "
                f"{base + pos + bit // 6}"
            )
        bit += 1
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    """Encode in canonical graph6 (shortest size header, zero padding)."""
    n = g.n
    if n > MAX_GRAPH6_VERTICES:
        raise ValueError(
            f"graph6 encoding capped at {MAX_GRAPH6_VERTICES} vertices"
        )
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    out = list(head)
    acc = 0
    filled = 0
    for (i, j) in _g6_triangle_order(n):
        acc = (acc << 1) | (1 if (i, j) in g.edges else 0)
        filled += 1
        if filled == 6:
            out.append(63 + acc)
            acc, filled = 0, 0
    if filled:
        out.append(63 + (acc << (6 - filled)))
    return bytes(out).decode("ascii")


# ---------------------------------------------------------------------------
# edge-list format: first token is n, then one "u v" pair per line


def parse_edge_list(text: str) -> Graph:
    """Parse "n, then `u v` lines" text.  Errors cite 1-based line numbers.

    Duplicate edges (in either orientation) collapse silently.
    """
    n: int | None = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise GraphParseError(
                    f"edge list line {lineno}: expected the vertex count "
                    f"alone on the first line, got {len(tokens)} tokens"
                )
            try:
                n = int(tokens[0])
            except ValueError:
                raise GraphParseError(
                    f"edge list line {lineno}: vertex count is not an "
                    f"integer: {tokens[0]!r}"
                ) from None
            if n < 0:
                raise GraphParseError(
                    f"edge list line {lineno}: vertex count must be "
                    f"non-negative, got {n}"
                )
            continue
        if len(tokens) != 2:
            raise GraphParseError(
                f"edge list line {lineno}: expected 'u v', got {raw!r}"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(
                f"edge list line {lineno}: endpoints must be integers: {raw!r}"
            ) from None
        if u == v:
            raise GraphParseError(
                f"edge list line {lineno}: self-loop at vertex {u}"
            )
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(
                f"edge list line {lineno}: edge ({u}, {v}) out of range "
                f"for n={n}"
            )
        edges.append(_normalize_edge(u, v))
    if n is None:
        raise GraphParseError("edge list: no vertex count found")
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# structural primitives


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components, ordered by their smallest vertex."""
    seen = [False] * g.n
    out: list[frozenset[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(frozenset(comp))
    return out


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def cyclomatic_number(g: Graph) -> int:
    """Number of independent cycles: |E| - |V| + (number of components)."""
    return g.num_edges - g.n + len(components(g))


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.num_edges == g.n - 1 and is_connected(g)


def pendant_vertices(g: Graph) -> frozenset[int]:
    """Vertices of degree exactly 1."""
    return frozenset(v for v in range(g.n) if len(g.adj[v]) == 1)


def quasi_pendant_vertices(g: Graph) -> frozenset[int]:
    """Non-pendant vertices adjacent to at least one pendant vertex.

    In a single edge both endpoints are pendant, so neither qualifies.
    """
    pend = pendant_vertices(g)
    return frozenset(
        v
        for v in range(g.n)
        if len(g.adj[v]) >= 2 and any(u in pend for u in g.adj[v])
    )


class InducedSubgraph(NamedTuple):
    graph: Graph
    index_map: dict[int, int]  # old vertex id -> new vertex id


def delete_vertices(g: Graph, vs: Iterable[int]) -> InducedSubgraph:
    """Remove ``vs`` and their incident edges; relabel survivors contiguously.

    Returns the new graph plus the old->new index map for kept vertices.
    """
    drop = set(vs)
    bad = drop - set(range(g.n))
    if bad:
        raise ValueError(f"vertices {sorted(bad)} out of range for n={g.n}")
    index_map: dict[int, int] = {}
    for v in range(g.n):
        if v not in drop:
            index_map[v] = len(index_map)
    edges = [
        (index_map[u], index_map[v])
        for u, v in g.edges
        if u not in drop and v not in drop
    ]
    return InducedSubgraph(Graph(len(index_map), edges), index_map)


def delete_vertex(g: Graph, v: int) -> Graph:
    """Convenience wrapper: remove one vertex, discard the index map."""
    return delete_vertices(g, (v,)).graph


def delete_edges(g: Graph, edges: Iterable[tuple[int, int]]) -> Graph:
    """Remove the given edges, keeping all vertices.  Absent edge is an error."""
    drop: set[Edge] = set()
    for u, v in edges:
        e = _normalize_edge(u, v)
        if e not in g.edges:
            raise ValueError(f"edge {e} not present in graph")
        drop.add(e)
    return Graph(g.n, g.edges - drop)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> InducedSubgraph:
    """Induced subgraph on ``keep``; complement of :func:`delete_vertices`."""
    keep_set = set(keep)
    return delete_vertices(g, set(range(g.n)) - keep_set)
