"""Simple undirected graphs with exact, deterministic primitives.

Vertices are the integers ``0..n-1``.  Graphs are immutable: an
operation that changes a graph returns a new one.  Graphs are compared
with ``==``, never ``is``.  A graph holds only ``n`` and ``adj``, its
neighbour sets; ``edges`` builds a new frozenset on each access, so a
caller reads it once, not in a loop.  Parsing
supports the graph6 interchange format and a plain edge-list format.
``graph_inertia`` without ``terms`` keeps its answers on small graphs
for the life of the process (:func:`_memoised`), keyed by an int that
encodes the graph.  :func:`_deletion_keys` reads the key of every
single-vertex deletion of a graph on at most ``MEMO_VERTICES + 1``
vertices straight off its neighbour sets, so a caller that wants only
those graphs' memo answers takes the shared graph for each key
(:func:`_small_graph`) and builds no G - v.
"""

from __future__ import annotations

from collections import deque
from functools import cache, wraps
from math import isqrt
from typing import Callable, Iterable, TypeVar

Edge = tuple[int, int]

# graph6 encodes the vertex count in at most 18 bits here; this cap, which
# the edge-list parser shares, keeps allocation sane and rejects absurd
# headers early.
MAX_GRAPH6_VERTICES = 64000


class GraphParseError(ValueError):
    """Raised when graph6 or edge-list input is malformed."""


def _normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if type(n) is not int:
            raise ValueError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge {(u, v)!r} has an endpoint that is not an int")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {_normalize_edge(u, v)} out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "n", n)
        # tuple() of a list, not of a generator: growing a tuple from an
        # iterator reallocates it, and over many graphs that fragments the
        # heap (peak RSS kept rising over repeated analyze passes)
        object.__setattr__(self, "adj", tuple([frozenset(s) for s in adj]))

    @classmethod
    def _trusted(cls, adj: list[frozenset[int]]) -> Graph:
        """The graph with neighbour sets ``adj``, taken as valid without a check."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "adj", tuple(adj))
        return g

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
        return self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    @property
    def edges(self) -> frozenset[Edge]:
        """The ``(u, v)`` pairs with ``u < v``, built anew on each access."""
        return frozenset((u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adj)) // 2


# ---------------------------------------------------------------------------
# small constructors


def path_graph(n: int) -> Graph:
    """Path on ``n`` vertices (n-1 edges)."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n`` vertices; requires n >= 3."""
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star with one center (vertex 0) and ``leaves`` pendant vertices."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# ---------------------------------------------------------------------------
# graph6 format

GRAPH6_HEADER = ">>graph6<<"


# The payload lists the upper triangle column by column, (0,1), (0,2),
# (1,2), (0,3), ..., as fixed by the graph6 format: pair (i, j), i < j, is
# bit b = j(j - 1)/2 + i, six bits to a byte, the first bit the highest.
_G6_BYTES = bytes(range(63, 127))
# sextet value -> its set bits, as offsets 0..5 from the highest
_SEXTET_BITS = tuple(tuple(k for k in range(6) if x & (32 >> k)) for x in range(64))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional ``>>graph6<<`` header allowed).

    Errors mention the byte offset of the first offending byte.
    """
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        # every character before the first non-ASCII one is one byte
        raise GraphParseError(
            f"graph6: non-ASCII character {text[exc.start]!r} at offset {exc.start}"
        ) from None
    base = 0
    if data.startswith(GRAPH6_HEADER.encode()):
        base = len(GRAPH6_HEADER)
        data = data[base:]
    data = data.rstrip(b"\r\n")
    if not data:
        raise GraphParseError("graph6: empty input")
    if data.translate(None, _G6_BYTES):
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
    # canonical encodings zero-pad the final byte (padding is under 6 bits)
    if need and (payload[-1] - 63) & ((1 << (6 * need - nbits)) - 1):
        raise GraphParseError(
            f"graph6: nonzero padding bit in final byte at offset "
            f"{base + pos + need - 1}"
        )
    adj: list[set[int]] = [set() for _ in range(n)]
    for k, byte in enumerate(payload):
        if byte != 63:
            for off in _SEXTET_BITS[byte - 63]:
                b = 6 * k + off
                j = (isqrt(8 * b + 1) + 1) // 2
                i = b - j * (j - 1) // 2
                adj[i].add(j)
                adj[j].add(i)
    return Graph._trusted([frozenset(s) for s in adj])


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
    sextets = bytearray((n * (n - 1) // 2 + 5) // 6)
    for j, nbrs in enumerate(g.adj):
        col = j * (j - 1) // 2
        for i in nbrs:
            if i < j:
                q, r = divmod(col + i, 6)
                sextets[q] |= 32 >> r
    # _G6_BYTES * 4 maps each byte x to 63 + x % 64
    return (bytes(head) + sextets.translate(_G6_BYTES * 4)).decode("ascii")


# ---------------------------------------------------------------------------
# edge-list format: first token is n, then one "u v" pair per line


def _integer(token: str) -> int:
    """An optional '-' then ASCII digits; int() also takes '+3', '1_0' and non-ASCII digits."""
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(token)
    return int(token)


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
                n = _integer(tokens[0])
            except ValueError:
                raise GraphParseError(
                    f"edge list line {lineno}: vertex count is not an "
                    f"integer: {tokens[0]!r}"
                ) from None
            if not 0 <= n <= MAX_GRAPH6_VERTICES:
                raise GraphParseError(
                    f"edge list line {lineno}: vertex count {n} is outside "
                    f"the supported range 0..{MAX_GRAPH6_VERTICES}"
                )
            continue
        if len(tokens) != 2:
            raise GraphParseError(
                f"edge list line {lineno}: expected 'u v', got {raw!r}"
            )
        try:
            u, v = _integer(tokens[0]), _integer(tokens[1])
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
        edges.append((u, v))
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


def cyclomatic_number(g: Graph) -> int:
    """Number of independent cycles: |E| - |V| + (number of components)."""
    return g.num_edges - g.n + len(components(g))


def pendant_vertices(g: Graph) -> frozenset[int]:
    """Vertices of degree exactly 1."""
    return frozenset(v for v in range(g.n) if len(g.adj[v]) == 1)


def _checked_vertices(g: Graph, vs: Iterable[int]) -> set[int]:
    """``vs`` as a set, each an ``int`` vertex of ``g`` (``True`` and ``1.0`` are not)."""
    vs = set(vs)
    bad = vs.difference(range(g.n))
    if bad:
        raise ValueError(f"vertices {sorted(bad)} out of range for n={g.n}")
    if not {int}.issuperset(map(type, vs)):
        raise ValueError(f"vertices {sorted(vs)} are not all ints")
    return vs


def delete_vertices(g: Graph, vs: Iterable[int]) -> Graph:
    """Remove ``vs`` and their incident edges.

    Survivors keep their order: a kept vertex ``v`` becomes ``v`` minus
    the number of deleted vertices below it.  The result is a new graph
    whose neighbour sets are relabelled directly, without
    ``Graph.__init__``: a subgraph of a valid graph holds no self-loop
    and no pair out of range, so there is nothing to check again.
    """
    n, adj, drop = g.n, g.adj, _checked_vertices(g, vs)
    # ``label`` is right on every kept vertex; a deleted one keeps a stale
    # label, so only the neighbours of deleted vertices filter them out
    ds = sorted(drop)
    keep = list(range(n))
    label = list(range(n))
    for i, d in enumerate(ds):
        del keep[d - i]
        end = ds[i + 1] if i + 1 < len(ds) else n
        label[d + 1 : end] = range(d - i, end - i - 1)
    near = set().union(*[adj[v] for v in drop])
    relabel = label.__getitem__
    return Graph._trusted([frozenset(map(relabel, adj[v] - drop if v in near else adj[v])) for v in keep])


# ---------------------------------------------------------------------------
# per-process memo of graph_inertia on small graphs

# There are 1 + 1 + 2 + 8 + 64 + 1024 = 1100 labelled graphs on at most
# five vertices, so a memo capped here is complete and never evicts.
MEMO_VERTICES = 5
# _PAIR_BITS[j][i]: pair (i, j)'s bit in a memo key, in graph6 order above
# the three bits of the vertex count; 0 unless i < j
_PAIR_BITS = tuple(
    tuple(8 << (j * (j - 1) // 2 + i) if i < j else 0 for i in range(MEMO_VERTICES))
    for j in range(MEMO_VERTICES)
)
# one memo per memoised kernel (graph_inertia is the one), emptied only by the tests
_MEMOS: list[dict[int, object]] = []
# the 32 neighbour sets a graph on at most five vertices can have, by bit mask
_SUBSETS = tuple(frozenset(i for i in range(MEMO_VERTICES) if mask >> i & 1) for mask in range(1 << MEMO_VERTICES))
# id(g) -> (g, its memo key) for every graph _small_graph built; holding g
# keeps its id from passing to another object
_INTERNED: dict[int, tuple[Graph, int]] = {}


@cache
def _small_graph(key: int) -> Graph:
    """The process's one graph with memo ``key``, built on first use from shared neighbour sets."""
    n = key & 7
    masks = [0] * n
    for j in range(n):
        for i in range(j):
            if key & _PAIR_BITS[j][i]:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    g = Graph._trusted([_SUBSETS[mask] for mask in masks])
    _INTERNED[id(g)] = (g, key)
    return g


def _memo_key(g: Graph) -> int:
    """``g``'s memo key, walked from its neighbour sets."""
    key = g.n
    for bits, nbrs in zip(_PAIR_BITS, g.adj):
        for i in nbrs:
            key |= bits[i]
    return key


# _DROP_BITS[j][i][v]: pair (i, j)'s bit in the memo key of g minus vertex v,
# for i < j <= MEMO_VERTICES; 0 when v is i or j.  Deleting v lowers by one
# every label above it.
_DROP_BITS = tuple(
    tuple(
        tuple(0 if v in (i, j) else _PAIR_BITS[j - (j > v)][i - (i > v)] for v in range(MEMO_VERTICES + 1))
        for i in range(j)
    )
    for j in range(MEMO_VERTICES + 1)
)


def _deletion_keys(g: Graph) -> list[int]:
    """The memo key of each ``delete_vertices(g, (v,))``, in vertex order, read off ``g.adj`` in one pass.

    ``g`` has at most ``MEMO_VERTICES + 1`` vertices.  No vertex is
    checked and no graph or relabelling is built; each edge adds its bit
    to the key of every G - v that keeps it (the bits are distinct, so
    summing them sets them).
    """
    n = g.n
    columns = [_DROP_BITS[j][i] for j, nbrs in enumerate(g.adj) for i in nbrs if i < j]
    return list(map(sum, zip([n - 1] * n, *columns)))


_T = TypeVar("_T")


def _memoised(kernel: Callable[[Graph], _T]) -> Callable[..., _T]:
    """``kernel`` answering each graph on at most :data:`MEMO_VERTICES` vertices once per process.

    Such a graph is looked up by an int key: its upper triangle in
    graph6 bit order, above the vertex count.  The key of a graph that
    :func:`_small_graph` built is read from :data:`_INTERNED`; any other
    graph's is walked from its edges.  A larger graph, or a call that
    hands ``kernel`` more than the graph, runs ``kernel`` as it is and
    stores nothing.  The kernels are pure functions of the graph and
    return immutable values, so a hit is what a run would give, and no
    result depends on which graphs the process met before.
    """
    memo: dict[int, _T] = {}
    _MEMOS.append(memo)  # type: ignore[arg-type]

    @wraps(kernel)
    def memoised(g: Graph, *args, **kwargs) -> _T:
        if g.n > MEMO_VERTICES or args or kwargs:
            return kernel(g, *args, **kwargs)
        interned = _INTERNED.get(id(g))
        key = _memo_key(g) if interned is None else interned[1]
        value = memo.get(key)
        if value is None:
            value = memo[key] = kernel(g)
        return value

    return memoised
