import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szlab.errors import EdgeListFormatError, Graph6Error
from szlab.formats import parse_edge_list, parse_graph6, to_graph6
from szlab.graphs import Graph

from .oracles import parse_graph6_bytewise


def test_parse_cr_is_c4():
    # Hand decode: 'C' -> n=4, 'r' -> 114-63 = 0b110011 over pairs
    # (0,1),(0,2),(1,2),(0,3),(1,3),(2,3), so edges 01, 02, 13, 23.
    g = parse_graph6("Cr")
    assert g.n == 4
    assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert sorted(map(g.degree, g.vertices())) == [2, 2, 2, 2]


def test_parse_matches_networkx_decoder(enumerated):
    for graphs in enumerated.values():
        for g in graphs:
            line = to_graph6(g)
            ref = nx.from_graph6_bytes(line.encode("ascii"))
            assert ref.number_of_nodes() == g.n
            assert sorted(tuple(sorted(e)) for e in ref.edges()) == list(g.edges)


def test_networkx_accepts_our_encoding(c4_pendant):
    ref = nx.from_graph6_bytes(to_graph6(c4_pendant).encode("ascii"))
    assert sorted(tuple(sorted(e)) for e in ref.edges()) == list(c4_pendant.edges)


def test_single_vertex_encodes_to_at():
    assert to_graph6(Graph(1, [])) == "@"
    assert parse_graph6("@").n == 1


def test_round_trip_on_enumerated(enumerated):
    for graphs in enumerated.values():
        for g in graphs:
            assert parse_graph6(to_graph6(g)) == g


def test_round_trip_large_n():
    g = Graph(70, [(i, i + 1) for i in range(69)])
    line = to_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line) == g
    ref = nx.from_graph6_bytes(line.encode("ascii"))
    assert ref.number_of_nodes() == 70


def test_round_trip_n300_against_networkx():
    rng = random.Random(300)
    g = Graph(300, [e for e in combinations(range(300), 2) if rng.random() < 0.05])
    ref = nx.Graph()
    ref.add_nodes_from(range(300))
    ref.add_edges_from(g.edges)
    line = to_graph6(g)
    assert nx.to_graph6_bytes(ref, header=False) == (line + "\n").encode("ascii")
    assert parse_graph6(line) == g
    back = nx.from_graph6_bytes(line.encode("ascii"))
    assert back.number_of_nodes() == 300
    assert sorted(tuple(sorted(e)) for e in back.edges()) == list(g.edges)


@st.composite
def graphs_up_to_70(draw):
    """n = 0..70, half of them past 62 (the `~` long header), at one of five edge densities."""
    n = draw(st.one_of(st.integers(0, 62), st.integers(63, 70)))
    p = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(graphs_up_to_70())
def test_graph6_round_trip_property(g):
    line = to_graph6(g)
    assert line.startswith("~") == (g.n > 62)
    assert parse_graph6(line) == g
    assert parse_graph6(">>graph6<<" + line) == g
    ref = nx.from_graph6_bytes(line.encode("ascii"))
    assert ref.number_of_nodes() == g.n
    assert sorted(tuple(sorted(e)) for e in ref.edges()) == list(g.edges)


def test_malformed_header_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("~~")
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_trailing_garbage_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("CrX")
    with pytest.raises(Graph6Error):
        parse_graph6("C")


def test_bad_bytes_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("C\x1f")
    with pytest.raises(Graph6Error):
        parse_graph6("Cé")


def _outcome(parse, text: str):
    try:
        return parse(text)
    except Graph6Error as exc:
        return str(exc)


def test_every_byte_value_decodes_as_bytewise():
    # Each byte value 0..255 in turn at the header and at body positions, in
    # records with a one-byte and a four-byte size header: the table decoder
    # accepts the same records as the per-byte reference, giving the same
    # graph, and rejects the rest with the same message.
    short = to_graph6(Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6)]))
    long = to_graph6(Graph(64, [(i, i + 1) for i in range(63)]))
    records = [(short, [0, 1, 2, len(short) - 1]), (long, [0, 1, 3, 4, 100, len(long) - 1])]
    accepted = 0
    for line, positions in records:
        for i in positions:
            for b in range(256):
                text = line[:i] + chr(b) + line[i + 1 :]
                expected = _outcome(parse_graph6_bytewise, text)
                assert _outcome(parse_graph6, text) == expected, (text, b)
                accepted += isinstance(expected, Graph)
    # Body bytes 63..126 mostly decode; the header and padding reject most values.
    assert 0 < accepted < 10 * 256


def test_nonzero_padding_rejected():
    # n=2 has one bit; the remaining five must be zero.  63+1 = '@'+1 sets a
    # padding bit.
    assert parse_graph6("A?").m == 0
    assert parse_graph6("A_").m == 1
    with pytest.raises(Graph6Error):
        parse_graph6("A@")
    # n = 2..13 leaves 0, 2, 3 or 5 padding bits, every width graph6 can leave;
    # setting any one of them is rejected, whatever the bits before it.
    widths = set()
    for n in range(2, 14):
        width = -(n * (n - 1) // 2) % 6
        widths.add(width)
        for g in (Graph(n, []), Graph(n, combinations(range(n), 2))):
            line = to_graph6(g)
            assert parse_graph6(line) == g
            for bit in range(width):
                with pytest.raises(Graph6Error, match="padding"):
                    parse_graph6(line[:-1] + chr(ord(line[-1]) + (1 << bit)))
    assert widths == {0, 2, 3, 5}


def test_optional_prefix_stripped():
    assert parse_graph6(">>graph6<<Cr").edges == parse_graph6("Cr").edges


def test_edge_list_round_trip(c4_pendant):
    text = "5 5\n" + "".join(f"{u} {v}\n" for u, v in c4_pendant.edges)
    assert parse_edge_list(text) == c4_pendant


def test_edge_list_errors():
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("")
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("3\n0 1")
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("3 2\n0 1")
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("3 1\n0 9")
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("3 1\n0 a")
