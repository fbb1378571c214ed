"""Simple undirected graphs: construction, graph6 I/O, and small-scale isomorphism.

Vertices are the contiguous indices 0..n-1 and graphs are immutable values,
so they hash, compare, and are safe to share.  The only wire format is
graph6 (6-bit encoding, bias 63), implemented bit-exactly.

Canonical forms use individualization-refinement.  Every pair of leaves with
equal codes yields an automorphism, and the search prunes with it as nauty
does: it backjumps to the two leaves' deepest common ancestor, and it skips a
child lying in the orbit of an explored sibling under the automorphisms found
so far that fix the node's prefix.  Both rules skip only automorphic images
of explored subtrees, so the minimum code, and with it the canonical graph6,
is the one the unpruned tree gives.  The supported bound is n <= 64, far
above anything the search engine produces.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Optional, Sequence

import numpy as np

MAX_VERTICES = 1 << 16
CANON_MAX_VERTICES = 64

# Entries kept by each graph-keyed cache: canonical_form here and the
# (graph, mu)-keyed resolvent and eig_multiplicity caches in linalg.
# Star-set certificates key the resolvent by every complement they test,
# and extension runs canonise and rank every assembled graph, so the caches
# are bounded rather than kept for the life of the process.
CACHE_SIZE = 256


class Graph6Error(ValueError):
    """Malformed graph6 input; `offset` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedSizeError(ValueError):
    """Graph too large for the requested operation."""


class Graph:
    """Immutable simple graph: vertex count plus a symmetric 0/1 adjacency matrix."""

    __slots__ = ("n", "_adj", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0 or n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
        adj = np.zeros((n, n), dtype=np.uint8)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u, v] = 1
            adj[v, u] = 1
        adj.setflags(write=False)
        self.n = n
        self._adj = adj
        self._hash = hash((n, adj.tobytes()))

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> "Graph":
        raw = np.asarray(adj)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise ValueError("adjacency matrix must be square")
        n = raw.shape[0]
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
        try:
            a = raw.astype(np.uint8)
        except (OverflowError, TypeError) as exc:
            raise ValueError("adjacency entries must be 0 or 1") from exc
        # The cast wraps -1 to 255 and truncates 1/2 to 0, so an entry
        # outside 0/1 shows as a value above 1 or as a copy that differs.
        if (n and a.max() > 1) or (
            raw.dtype not in (np.uint8, np.bool_) and not np.array_equal(a, raw)
        ):
            raise ValueError("adjacency entries must be 0 or 1")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency matrix must be symmetric")
        if np.any(np.diag(a)):
            raise ValueError("self-loops are not allowed")
        g = cls.__new__(cls)
        a.setflags(write=False)
        g.n = n
        g._adj = a
        g._hash = hash((n, a.tobytes()))
        return g

    @property
    def adj(self) -> np.ndarray:
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u, v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(int(u) for u in np.nonzero(self._adj[v])[0])

    def degree(self, v: int) -> int:
        return int(self._adj[v].sum())

    def degrees(self) -> tuple[int, ...]:
        return tuple(int(d) for d in self._adj.sum(axis=1))

    def edges(self) -> list[tuple[int, int]]:
        return [(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(self._adj)))]

    @property
    def edge_count(self) -> int:
        return int(self._adj.sum()) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._adj, other._adj)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def matching_graph(p: int) -> Graph:
    """p disjoint edges: vertices 2i and 2i+1 are matched."""
    return Graph(2 * p, ((2 * i, 2 * i + 1) for i in range(p)))


def make_complete_split(s: int, t: int) -> Graph:
    """Join of a clique on s vertices with t isolated vertices.

    Vertices 0..s-1 are the clique block, s..s+t-1 the independent block, so
    the adjacency matrix has the block shape ((J-I, J), (J, 0)).
    """
    if s < 1 or t < 1:
        raise ValueError("complete split graph needs s >= 1 and t >= 1")
    # Lazy, so Graph checks the vertex bound before any edge is listed.
    cross = ((i, s + j) for i in range(s) for j in range(t))
    return Graph(s + t, chain(combinations(range(s), 2), cross))


def make_cocktail(p: int) -> Graph:
    """Cocktail-party graph: complement of p disjoint edges; (2p-2)-regular.

    Vertex 2i is nonadjacent exactly to vertex 2i+1.
    """
    if p < 1:
        raise ValueError("cocktail-party graph needs p >= 1")
    return complement(matching_graph(p))


def join(g: Graph, h: Graph) -> Graph:
    """Graph join: disjoint union plus all edges between the two parts."""
    n = g.n + h.n
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[: g.n, : g.n] = g.adj
    adj[g.n :, g.n :] = h.adj
    adj[: g.n, g.n :] = 1
    adj[g.n :, : g.n] = 1
    return Graph.from_adjacency(adj)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[: g.n, : g.n] = g.adj
    adj[g.n :, g.n :] = h.adj
    return Graph.from_adjacency(adj)


def complement(g: Graph) -> Graph:
    adj = 1 - g.adj
    np.fill_diagonal(adj, 0)
    return Graph.from_adjacency(adj)


def vertex_set(g: Graph, vertices: Iterable[int], what: str = "vertex set") -> tuple[int, ...]:
    """The sorted distinct vertices; ValueError naming `what` if any is not in g."""
    out = tuple(sorted(set(int(v) for v in vertices)))
    if out and not (0 <= out[0] and out[-1] < g.n):
        raise ValueError(f"{what} {out} out of range for n={g.n}")
    return out


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on `vertices`, relabeled 0..k-1 in sorted order."""
    idx = np.array(vertex_set(g, vertices), dtype=np.intp)
    return Graph.from_adjacency(g.adj[np.ix_(idx, idx)])


def delete_vertices(g: Graph, vertices: Sequence[int]) -> Graph:
    drop = set(int(v) for v in vertices)
    return induced_subgraph(g, [v for v in range(g.n) if v not in drop])


def is_regular(g: Graph) -> Optional[int]:
    """The common degree if the graph is regular, else None."""
    if g.n == 0:
        return 0
    degs = g.adj.sum(axis=1)
    d = int(degs[0])
    return d if bool(np.all(degs == d)) else None


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise UnsupportedSizeError(f"graph6 output for n={n} not supported")


def write_graph6(g: Graph) -> str:
    """Encode as a graph6 string (upper triangle, column-major, 6-bit groups)."""
    n = g.n
    out = bytearray(_g6_size_bytes(n))
    bits = []
    adj = g.adj
    for j in range(1, n):
        for i in range(j):
            bits.append(int(adj[i, j]))
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k : k + 6]:
            v = (v << 1) | b
        out.append(v + 63)
    return out.decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string; raises Graph6Error with a byte offset on defects."""
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER) :]
    data = text.encode("ascii", errors="replace")
    if len(data) == 0:
        raise Graph6Error("empty graph6 string", 0)
    for pos, byte in enumerate(data):
        if byte < 63 or byte > 126:
            raise Graph6Error(f"invalid graph6 byte {byte!r}", pos)
    if data[0] == 126:
        if len(data) < 2 or data[1] == 126:
            raise Graph6Error("graph6 size prefix for n > 258047 not supported", 0)
        if len(data) < 4:
            raise Graph6Error("truncated graph6 size prefix", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
        body_offset = 4
    else:
        n = data[0] - 63
        body = data[1:]
        body_offset = 1
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds bound {MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise Graph6Error(
            f"graph6 body has {len(body)} bytes, expected {expect} for n={n}",
            body_offset + min(len(body), expect),
        )
    adj = np.zeros((n, n), dtype=np.uint8)
    k = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[k // 6]
            bit = (byte - 63) >> (5 - k % 6) & 1
            adj[i, j] = bit
            adj[j, i] = bit
            k += 1
    while k < 6 * len(body):
        if (body[k // 6] - 63) >> (5 - k % 6) & 1:
            raise Graph6Error("nonzero padding bit", body_offset + k // 6)
        k += 1
    return Graph.from_adjacency(adj)


# ---------------------------------------------------------------------------
# Canonical form and isomorphism
# ---------------------------------------------------------------------------


def _refine(neighbors: list[tuple[int, ...]], colors: list[int]) -> list[int]:
    """Stable color refinement: split classes by multisets of neighbor colors.

    New color ids are assigned from the sorted signature order, so they depend
    only on the structure of the partition, never on vertex labels.
    """
    n = len(colors)
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in neighbors[v])))
            for v in range(n)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[sigs[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _individualize(colors: list[int], w: int) -> list[int]:
    sigs = [(colors[v], 1 if v == w else 0) for v in range(len(colors))]
    order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
    return [order[sigs[v]] for v in range(len(colors))]


def _encode(adj: np.ndarray, position: list[int]) -> int:
    """Adjacency bits packed as one big int, read in canonical position order."""
    n = len(position)
    vert_at = [0] * n
    for v, p in enumerate(position):
        vert_at[p] = v
    code = 0
    for i in range(n):
        vi = vert_at[i]
        for j in range(i + 1, n):
            code = (code << 1) | int(adj[vi, vert_at[j]])
    return code


def _root(parent: list[int], v: int) -> int:
    """Union-find root of v, halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _canon_search(g: Graph) -> tuple[int, list[int]]:
    """Minimum adjacency code over the individualization-refinement tree.

    Each leaf is a discrete coloring; two leaves with equal codes induce an
    automorphism, which is recorded and prunes the tree in two ways:

    - Backjump.  If a leaf's code equals the best code, let k be the length
      of the common prefix of the two leaves' individualized vertices.  The
      induced automorphism fixes that prefix pointwise and maps the best
      leaf's branch at depth k onto the current one, so the current branch
      is the image of one already explored: every frame deeper than k
      returns, and the node at depth k goes on with its next child.
    - Orbit pruning.  A node skips child w when w lies in the orbit of an
      explored sibling under the group generated by the recorded
      automorphisms that fix the node's prefix pointwise.

    Both rules skip only automorphic images of explored subtrees, which hold
    the same multiset of leaf codes, so the minimum code is unchanged; the
    code fixes the relabeled adjacency, so the graph6 built from whichever
    minimal leaf is kept is unchanged too.
    """
    n = g.n
    adj = g.adj
    neighbors = [g.neighbors(v) for v in range(n)]
    best: list = [None, None, ()]  # [code, position, individualized prefix]
    autos: list[list[int]] = []

    def dfs(colors: list[int], fixed: tuple[int, ...]) -> int:
        """Search the subtree; return the depth the search resumes at."""
        depth = len(fixed)
        colors = _refine(neighbors, colors)
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            classes.setdefault(c, []).append(v)
        target = None
        for c in sorted(classes):
            cell = classes[c]
            if len(cell) > 1 and (target is None or len(cell) < len(target)):
                target = cell
        if target is None:
            code = _encode(adj, colors)
            if best[0] is None or code < best[0]:
                best[:] = [code, colors[:], fixed]
            elif code == best[0]:
                # colors and best[1] are two labelings with equal codes; the
                # induced vertex map is an automorphism worth remembering.
                at_best = [0] * n
                for v, p in enumerate(best[1]):
                    at_best[p] = v
                sigma = [0] * n
                for v in range(n):
                    sigma[v] = at_best[colors[v]]
                autos.append(sigma)
                k = 0
                while fixed[k] == best[2][k]:
                    k += 1
                return k
            return depth
        explored: list[int] = []
        # Orbits of the recorded automorphisms fixing `fixed`, as a union-find
        # forest over the vertices; built once autos is nonempty and extended
        # only by the automorphisms recorded since.
        parent: Optional[list[int]] = None
        seen = 0
        for w in target:
            if seen < len(autos):
                if parent is None:
                    parent = list(range(n))
                for sigma in autos[seen:]:
                    if all(sigma[x] == x for x in fixed):
                        for v in range(n):
                            a, b = _root(parent, v), _root(parent, sigma[v])
                            if a != b:
                                parent[a] = b
                seen = len(autos)
            if parent is not None:
                r = _root(parent, w)
                if any(_root(parent, u) == r for u in explored):
                    continue
            explored.append(w)
            back = dfs(_individualize(colors, w), fixed + (w,))
            if back < depth:
                return back
        return depth

    dfs([0] * n, ())
    return best[0], best[1]


@lru_cache(maxsize=CACHE_SIZE)
def canonical_form(g: Graph) -> bytes:
    """Relabeling-invariant encoding: graph6 of the canonically labeled graph.

    Equal canonical forms are equivalent to isomorphism for n <= 64.  The
    last CACHE_SIZE forms are cached, so is_isomorphic on a graph that was
    just canonised reuses its form.
    """
    if g.n > CANON_MAX_VERTICES:
        raise UnsupportedSizeError(
            f"canonical form supported up to n={CANON_MAX_VERTICES}, got n={g.n}"
        )
    _, position = _canon_search(g) if g.n else (0, [])
    return write_graph6(relabel(g, position)).encode("ascii")


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g) == canonical_form(h)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of g under vertex permutation perm (vertex v becomes perm[v])."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of the vertex set")
    return Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges()))
