import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starcomp import (
    Graph,
    Graph6Error,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_regular,
    join,
    make_cocktail,
    make_complete_split,
    matching_graph,
    parse_graph6,
    write_graph6,
)
from starcomp.graphs import MAX_VERTICES, delete_vertices

from conftest import bitwise_parse_graph6, random_graph


class TestGraphBasics:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_adjacency_is_immutable(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            g.adj[0, 1] = 0

    def test_equality_and_hash(self):
        a = Graph(4, [(0, 1), (2, 3)])
        b = Graph(4, [(2, 3), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph(4, [(0, 1)])

    def test_from_adjacency_validates(self):
        bad = np.zeros((3, 3), dtype=np.uint8)
        bad[0, 1] = 1  # asymmetric
        with pytest.raises(ValueError):
            Graph.from_adjacency(bad)
        # entries other than 0 and 1, whatever the input type: 2 would write
        # an invalid graph6 byte, and -1, 256 and 1/2 change in a uint8 cast
        for entries in (
            [[0, 2], [2, 0]],
            [[0, -1], [-1, 0]],
            np.array([[0, 256], [256, 0]]),
            [[0.0, 0.5], [0.5, 0.0]],
            [[0, 2**70], [2**70, 0]],
        ):
            with pytest.raises(ValueError, match="entries must be 0 or 1"):
                Graph.from_adjacency(entries)
        # the vertex bound of the edge-list constructor, checked before any
        # copy of the (here zero-stride) matrix is made
        huge = np.broadcast_to(np.uint8(0), (MAX_VERTICES + 1,) * 2)
        with pytest.raises(ValueError, match="outside"):
            Graph.from_adjacency(huge)
        edge = Graph(2, [(0, 1)])
        for ok in ([[0, 1], [1, 0]], np.array([[False, True], [True, False]]),
                   np.array([[0, 1], [1, 0]], dtype=object)):
            assert Graph.from_adjacency(ok) == edge

    def test_induced_subgraph_checks_vertices(self):
        g = make_cocktail(3)
        assert induced_subgraph(g, [4, 0, 4]) == induced_subgraph(g, (0, 4))
        with pytest.raises(ValueError, match=r"out of range for n=6"):
            induced_subgraph(g, [0, 6])


    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), st.randoms(use_true_random=False), st.data())
    def test_induced_subgraph_matches_from_adjacency(self, n, rnd, data):
        # induced_subgraph wraps its slice without validating it again; it must
        # give the graph the validating constructor builds from the same slice
        g = random_graph(n, rnd)
        picked = data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
        for vertices in (sorted(picked), [], list(range(n))):
            idx = np.array(vertices, dtype=np.intp)
            sub = induced_subgraph(g, vertices)
            ref = Graph.from_adjacency(g.adj[np.ix_(idx, idx)])
            assert sub == ref and hash(sub) == hash(ref)
            assert sub.n == len(vertices)
            assert sub.adj.dtype == np.uint8 and not sub.adj.flags.writeable
            assert sub.adj.tobytes() == ref.adj.tobytes()
            assert write_graph6(sub) == write_graph6(ref)

    def test_graph6_kept_on_graph(self):
        g = make_cocktail(4)
        twin = Graph.from_adjacency(g.adj)
        before = hash(g)
        first = write_graph6(g)
        assert write_graph6(g) is first
        assert first == write_graph6(twin) == "G]~v~w"
        assert g == twin and hash(g) == before == hash(twin)


class TestCompleteSplit:
    def test_2_2(self):
        g = make_complete_split(2, 2)
        assert g.n == 4
        assert g.edge_count == 5

    def test_1_3_is_star(self):
        g = make_complete_split(1, 3)
        assert g.n == 4
        assert g.edge_count == 3
        assert sorted(g.degrees()) == [1, 1, 1, 3]

    def test_3_2(self):
        g = make_complete_split(3, 2)
        assert g.n == 5
        assert g.edge_count == 9

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            make_complete_split(0, 2)
        with pytest.raises(ValueError):
            make_complete_split(2, 0)

    def test_vertex_bound_checked_before_edges(self):
        # the clique alone has about 2^31 edges; none may be listed first
        with pytest.raises(ValueError, match=rf"vertex count {MAX_VERTICES + 1} outside"):
            make_complete_split(MAX_VERTICES, 1)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_degree_sequence(self, s, t):
        g = make_complete_split(s, t)
        assert sorted(g.degrees(), reverse=True) == [s + t - 1] * s + [s] * t

    def test_block_layout(self):
        # clique block first, then the independent block
        g = make_complete_split(3, 2)
        assert all(g.has_edge(i, j) for i in range(3) for j in range(3) if i != j)
        assert not g.has_edge(3, 4)
        assert all(g.has_edge(i, j) for i in range(3) for j in (3, 4))


class TestCocktail:
    def test_octahedron(self):
        g = make_cocktail(3)
        assert g.n == 6
        assert g.edge_count == 12
        assert is_regular(g) == 4

    def test_p2_is_c4(self):
        from starcomp import is_isomorphic

        assert is_isomorphic(make_cocktail(2), cycle_graph(4))

    def test_p4(self):
        g = make_cocktail(4)
        assert g.n == 8
        assert g.edge_count == 24
        assert is_regular(g) == 6

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            make_cocktail(0)

    def test_antipodal_pairs(self):
        g = make_cocktail(3)
        for i in range(3):
            assert not g.has_edge(2 * i, 2 * i + 1)


class TestJoinComplement:
    def test_join_gives_complete_split(self):
        assert join(complete_graph(2), empty_graph(2)) == make_complete_split(2, 2)

    def test_join_with_empty_is_identity(self):
        h = random_graph(5, random.Random(7))
        assert join(empty_graph(0), h) == h

    def test_join_k1_k1(self):
        assert join(complete_graph(1), complete_graph(1)) == complete_graph(2)

    def test_complement_of_matching_is_cocktail(self):
        assert complement(matching_graph(3)) == make_cocktail(3)

    def test_complement_involution(self):
        rng = random.Random(3)
        for n in range(8):
            g = random_graph(n, rng)
            assert complement(complement(g)) == g

    def test_induced_subgraph_of_octahedron(self):
        # dropping the adjacent pair {0, 2} from the octahedron leaves the
        # complete split graph on {1,3} + {4,5}; explicit edge listing
        got = delete_vertices(make_cocktail(3), [0, 2])
        expected = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert got == expected

    def test_induced_subgraph_range_check(self):
        with pytest.raises(ValueError):
            induced_subgraph(complete_graph(3), [0, 5])

    def test_is_regular(self):
        assert is_regular(make_complete_split(1, 3)) is None
        assert is_regular(cycle_graph(5)) == 2
        assert is_regular(empty_graph(4)) == 0
        assert is_regular(make_complete_split(3, 1)) == 3

    def test_disjoint_union(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        assert g.edge_count == 2
        assert g.n == 4


class TestGraph6:
    def test_k6_round_trip(self):
        k6 = complete_graph(6)
        assert write_graph6(k6) == "E~~w"
        assert parse_graph6("E~~w") == k6

    def test_small_star(self):
        g = parse_graph6("D?{")
        assert g.n == 5
        assert g.edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]
        assert write_graph6(g) == "D?{"

    def test_empty_string_rejected(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_invalid_byte_offset(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("E   ")
        assert err.value.offset == 1

    def test_truncated_body(self):
        with pytest.raises(Graph6Error):
            parse_graph6("E~~")

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error):
            parse_graph6("E~~ww")

    def test_nonzero_padding_rejected(self):
        # K_3 is "Bw": bits 111 + 000 padding; "B{" sets a padding bit
        assert parse_graph6("Bw") == complete_graph(3)
        with pytest.raises(Graph6Error):
            parse_graph6("B{")

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<E~~w") == complete_graph(6)

    def test_zero_vertices(self):
        assert write_graph6(empty_graph(0)) == "?"
        assert parse_graph6("?").n == 0

    def test_long_form_size(self):
        g = empty_graph(100)
        text = write_graph6(g)
        assert text[0] == "~"
        assert parse_graph6(text) == g

    @settings(max_examples=60, deadline=None)
    # n up to 70 reaches the four-byte size prefix of n > 62
    @given(st.integers(0, 70), st.randoms(use_true_random=False))
    def test_round_trip_random(self, n, rnd):
        g = random_graph(n, rnd)
        assert parse_graph6(write_graph6(g)) == g

    @staticmethod
    def decode_both(text):
        """The graph, or the Graph6Error's (message, offset), from the package
        decoder and from the bit-by-bit oracle."""
        out = []
        for parse in (parse_graph6, bitwise_parse_graph6):
            try:
                out.append(parse(text))
            except Graph6Error as err:
                out.append((str(err), err.offset))
        return out

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 64), st.randoms(use_true_random=False))
    def test_matches_bitwise_decoder(self, n, rnd):
        # the numpy decoder against the bit-by-bit oracle: the round trip,
        # one corrupted byte anywhere, and a truncated or extended body
        g = random_graph(n, rnd)
        text = write_graph6(g)
        assert self.decode_both(text) == [g, g]
        pos = rnd.randrange(len(text))
        for byte in (rnd.randrange(256), rnd.randrange(63, 127)):
            bad = text[:pos] + chr(byte) + text[pos + 1 :]
            ours, oracle = self.decode_both(bad)
            assert ours == oracle, bad
        for bad in (text[:-1], text + "?", text + "~"):
            ours, oracle = self.decode_both(bad)
            assert ours == oracle, bad

    def test_every_byte_matches_bitwise_decoder(self):
        # each of the 256 code points in the size prefix, the body and the
        # last byte of a short and of a long-form string: the bytes just
        # outside 63..126 are rejected with the same offset, and non-ASCII
        # ones are replaced by '?' in both
        for text in (write_graph6(cycle_graph(7)), write_graph6(cycle_graph(70))):
            for pos in (0, 1, 2, len(text) - 1):
                for byte in range(256):
                    bad = text[:pos] + chr(byte) + text[pos + 1 :]
                    ours, oracle = self.decode_both(bad)
                    assert ours == oracle, (pos, byte)

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 10, 19, 62, 63, 65])
    def test_corrupted_padding_matches_bitwise_decoder(self, n):
        # every padding bit of the last body byte, set alone and together
        # with the last edge bit: the same message and byte offset
        text = write_graph6(empty_graph(n))
        nbits = n * (n - 1) // 2
        pad = -nbits % 6
        assert pad, n
        last = ord(text[-1]) - 63
        for k in range(nbits, nbits + pad):
            for extra in (0, 1 << (5 - (nbits - 1) % 6)):
                bad = text[:-1] + chr((last | extra | 1 << (5 - k % 6)) + 63)
                ours, oracle = self.decode_both(bad)
                offset = len(text) - 1
                assert ours == oracle == (f"nonzero padding bit (byte offset {offset})", offset)

    def test_networkx_cross_check(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng.randint(1, 20), rng)
            theirs = nx.from_graph6_bytes(write_graph6(g).encode())
            assert theirs.number_of_nodes() == g.n
            assert sorted(tuple(sorted(e)) for e in theirs.edges()) == g.edges()
