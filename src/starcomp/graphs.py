"""Simple undirected graphs: construction, graph6 I/O, and small-scale isomorphism.

Vertices are the contiguous indices 0..n-1 and graphs are immutable values,
so they hash, compare, and are safe to share.  The only wire format is
graph6 (6-bit encoding, bias 63), implemented bit-exactly.

Canonical forms use individualization-refinement on ordered partitions: a
list of sorted cells, with neighbourhoods held as int bitsets, so a vertex's
neighbours in a cell are counted as one popcount.  Refinement splits each
cell in place by its vertices' counts into the cells that changed last,
fragments in descending order of the count vectors.  That gives the cells,
in the same order, of the classic numbering in which a new colour is the
rank of (old colour, sorted neighbour colours): vertices of one cell have
one degree (the root's first round orders by ascending degree instead), and
sorted tuples of one length order as their count vectors do, descending.
Counts into a cell that did not change are equal across each cell, so a
round recounts only against the fresh fragments.

Every pair of leaves with equal codes yields an automorphism, and the
search prunes with it as nauty does: it backjumps to the two leaves' deepest
common ancestor, and it skips a child lying in the orbit of an explored
sibling under the automorphisms found so far that fix the node's prefix.
Both rules skip only automorphic images of explored subtrees, so the
minimum code, and with it the canonical graph6, is the one the unpruned
tree gives.  The supported bound is n <= 64, far above anything the search
engine produces.
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

    __slots__ = ("n", "_adj", "_hash", "_g6")

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
        self._set(adj)

    def _set(self, a: np.ndarray) -> None:
        a.setflags(write=False)
        self.n, self._adj, self._g6 = a.shape[0], a, None  # _g6: see write_graph6
        self._hash = hash((self.n, a.tobytes()))

    @classmethod
    def _of(cls, a: np.ndarray) -> "Graph":
        """Wrap, unchecked and uncopied, a valid graph's uint8 adjacency."""
        g = cls.__new__(cls)
        g._set(a)
        return g

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
        return cls._of(a)

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
    return Graph._of(g.adj[idx][:, idx])


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
# The 64 valid graph6 bytes, and a table that removes their bias of 63.
_G6_BYTES = bytes(range(63, 127))
_G6_UNBIAS = bytes((b - 63) % 256 for b in range(256))


def _g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise UnsupportedSizeError(f"graph6 output for n={n} not supported")


def _graph6(adj: np.ndarray) -> str:
    """graph6 of an adjacency matrix, with no header."""
    n = adj.shape[0]
    m = n * (n - 1) // 2
    bits = np.zeros(-(-m // 6) * 6, dtype=np.uint8)
    # The strict lower triangle row by row is graph6's upper triangle read
    # column by column.
    bits[:m] = adj[np.tri(n, k=-1, dtype=bool)]
    # Each 6-bit group packs into the top of a byte.
    body = (np.packbits(bits.reshape(-1, 6), axis=1).ravel() >> 2) + 63
    return (_g6_size_bytes(n) + body.tobytes()).decode("ascii")


def write_graph6(g: Graph) -> str:
    """Encode as a graph6 string (upper triangle, column-major, 6-bit groups),
    kept on the immutable graph after the first call."""
    if g._g6 is None:
        g._g6 = _graph6(g.adj)
    return g._g6


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string; raises Graph6Error with a byte offset on defects.

    The bytes are checked and unbiased by bytes.translate, and the body's
    6-bit groups are unpacked in one numpy pass to fill the strict lower
    triangle row by row, the inverse of _graph6.
    """
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER) :]
    data = text.encode("ascii", errors="replace")
    if len(data) == 0:
        raise Graph6Error("empty graph6 string", 0)
    if data.translate(None, _G6_BYTES):
        pos, byte = next((i, b) for i, b in enumerate(data) if not 63 <= b <= 126)
        raise Graph6Error(f"invalid graph6 byte {byte!r}", pos)
    if data[0] == 126:
        if len(data) < 2 or data[1] == 126:
            raise Graph6Error("graph6 size prefix for n > 258047 not supported", 0)
        if len(data) < 4:
            raise Graph6Error("truncated graph6 size prefix", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body_offset = 4
    else:
        n = data[0] - 63
        body_offset = 1
    body = data[body_offset:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds bound {MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise Graph6Error(
            f"graph6 body has {len(body)} bytes, expected {expect} for n={n}",
            body_offset + min(len(body), expect),
        )
    # Each group sits in the low six bits of its byte, most significant first.
    groups = np.frombuffer(body.translate(_G6_UNBIAS), dtype=np.uint8)
    bits = np.unpackbits(groups[:, None], axis=1)[:, 2:].ravel()
    padding = np.flatnonzero(bits[nbits:])
    if len(padding):
        raise Graph6Error("nonzero padding bit", body_offset + (nbits + int(padding[0])) // 6)
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[np.tri(n, k=-1, dtype=bool)] = bits[:nbits]
    return Graph.from_adjacency(adj | adj.T)


# ---------------------------------------------------------------------------
# Canonical form and isomorphism
# ---------------------------------------------------------------------------


def _bitsets(adj: np.ndarray) -> list[int]:
    """Neighbourhoods as ints: bit u of entry v is set when u ~ v."""
    rows = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _refine(nbr: list[int], cells: list[list[int]], changed: list[int]) -> list[list[int]]:
    """Split ordered cells until the partition is equitable.

    `changed` holds the indices of the cells made by the last step; every
    cell's vertices already agree on their counts into all other cells.  A
    round counts each vertex's neighbours in the changed cells and splits
    its cell, in place, into fragments by descending count vector.  The
    fragments are the next round's changed cells.
    """
    while changed:
        masks = [sum(1 << v for v in cells[i]) for i in changed]
        out: list[list[int]] = []
        changed = []
        for cell in cells:
            if len(cell) > 1:
                # The count vector packed 7 bits a count (a count is at
                # most CANON_MAX_VERTICES - 1), so ints order as vectors do.
                groups: dict[int, list[int]] = {}
                for v in cell:
                    row = nbr[v]
                    key = 0
                    for m in masks:
                        key = key << 7 | (row & m).bit_count()
                    groups.setdefault(key, []).append(v)
                if len(groups) > 1:
                    for key in sorted(groups, reverse=True):
                        changed.append(len(out))
                        out.append(groups[key])
                    continue
            out.append(cell)
        cells = out
    return cells


def _initial_cells(nbr: list[int]) -> list[list[int]]:
    """The root's partition: cells of ascending degree, then refined."""
    by_degree: dict[int, list[int]] = {}
    for v, row in enumerate(nbr):
        by_degree.setdefault(row.bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    return _refine(nbr, cells, list(range(len(cells))) if len(cells) > 1 else [])


def _individualize(nbr: list[int], cells: list[list[int]], i: int, w: int) -> list[list[int]]:
    """Split w off cells[i] into the cell right after it, then refine."""
    rest = [v for v in cells[i] if v != w]
    return _refine(nbr, cells[:i] + [rest, [w]] + cells[i + 1 :], [i, i + 1])


def _encode(adj: np.ndarray, order: list[int], upper: tuple[np.ndarray, np.ndarray]) -> bytes:
    """Upper-triangle adjacency bits, row by row in `order`, packed big-endian."""
    at = np.array(order, dtype=np.intp)
    return np.packbits(adj[at[upper[0]], at[upper[1]]]).tobytes()


def _root(parent: dict[int, int], v: int) -> int:
    """Union-find root of v, halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _merge_orbits(
    parent: dict[int, int],
    autos: list[tuple[list[int], int]],
    fixed: tuple[int, ...],
    cell: list[int],
) -> None:
    """Join v and sigma[v] in the union-find over `cell`, for each recorded
    automorphism (sigma, mask of the vertices sigma moves) that fixes every
    vertex of `fixed`.

    Such an automorphism maps each cell of the node's partition onto
    itself, so the forest covers the target cell only; one that moves a
    prefix vertex is skipped.
    """
    prefix = sum(1 << x for x in fixed)
    for sigma, moved in autos:
        if moved & prefix:
            continue
        for v in cell:
            u = sigma[v]
            if u != v:
                a, b = _root(parent, v), _root(parent, u)
                if a != b:
                    parent[a] = b


def _canon_search(g: Graph) -> tuple[int, list[int]]:
    """Minimum adjacency code over the individualization-refinement tree.

    A node is an ordered partition into sorted cells, refined until
    equitable (_refine); the root starts from the cells of ascending degree,
    and a child individualizes a vertex w of the first smallest nontrivial
    cell (the target), splitting it into [cell - w, {w}].  As the module
    docstring shows, these are the cells, in order, of the classic colour
    numbering, so the tree and its leaves are the ones that numbering
    gives.  A leaf's code is the upper triangle of the adjacency in cell
    order, packed into bytes of one length per graph, so bytes order as the
    codes do.

    Each pair of leaves with equal codes induces an automorphism, which is
    recorded and prunes the tree in two ways:

    - Backjump.  If a leaf's code equals the best code, let k be the length
      of the common prefix of the two leaves' individualized vertices.  The
      induced automorphism fixes that prefix pointwise and maps the best
      leaf's branch at depth k onto the current one, so the current branch
      is the image of one already explored: every frame deeper than k
      returns, and the node at depth k goes on with its next child.
    - Orbit pruning.  A node skips child w when w lies in the orbit of an
      explored sibling under the group generated by the recorded
      automorphisms that fix the node's prefix pointwise (_merge_orbits).

    Both rules skip only automorphic images of explored subtrees, which hold
    the same multiset of leaf codes, so the minimum code is unchanged; the
    code fixes the relabeled adjacency, so the graph6 built from whichever
    minimal leaf is kept is unchanged too.  Returns the code as an int and
    that leaf's vertex order (position -> vertex).
    """
    n = g.n
    adj = g.adj
    nbr = _bitsets(adj)
    upper = np.triu_indices(n, 1)
    best: list = [None, None, ()]  # [code, order, individualized prefix]
    autos: list[tuple[list[int], int]] = []

    def dfs(cells: list[list[int]], fixed: tuple[int, ...]) -> int:
        """Search the subtree; return the depth the search resumes at."""
        depth = len(fixed)
        target = -1
        for i, cell in enumerate(cells):
            if len(cell) > 1 and (target < 0 or len(cell) < len(cells[target])):
                target = i
        if target < 0:
            order = [cell[0] for cell in cells]
            code = _encode(adj, order, upper)
            if best[0] is None or code < best[0]:
                best[:] = [code, order, fixed]
            elif code == best[0]:
                # order and best[1] are two labelings with equal codes; the
                # induced vertex map is an automorphism worth remembering.
                sigma = [0] * n
                for v, u in zip(order, best[1]):
                    sigma[v] = u
                moved = sum(1 << v for v in range(n) if sigma[v] != v)
                autos.append((sigma, moved))
                k = 0
                while fixed[k] == best[2][k]:
                    k += 1
                return k
            return depth
        cell = cells[target]
        explored: list[int] = []
        # Orbits on the target cell of the recorded automorphisms fixing
        # `fixed`; built once autos is nonempty and extended only by the
        # automorphisms recorded since.
        parent: Optional[dict[int, int]] = None
        seen = 0
        for w in cell:
            if seen < len(autos):
                if parent is None:
                    parent = {v: v for v in cell}
                _merge_orbits(parent, autos[seen:], fixed, cell)
                seen = len(autos)
            if parent is not None:
                r = _root(parent, w)
                if any(_root(parent, u) == r for u in explored):
                    continue
            explored.append(w)
            back = dfs(_individualize(nbr, cells, target, w), fixed + (w,))
            if back < depth:
                return back
        return depth

    dfs(_initial_cells(nbr), ())
    return int.from_bytes(best[0], "big") >> (-len(upper[0]) % 8), best[1]


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
    _, order = _canon_search(g)
    return _graph6(g.adj[np.ix_(order, order)]).encode("ascii")


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
