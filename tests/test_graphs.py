import pickle
import random
import sys

import pytest

from certdom import (
    Graph,
    GraphParseError,
    VertexSet,
    complement,
    components,
    encode_edge_list,
    encode_graph6,
    induced_subgraph,
    leaf_profile,
    parse_edge_list,
    parse_graph6,
    parse_graph6_lines,
)
from certdom.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
)
from certdom.graphs import _bits
from certdom.suite import enumerate_labeled_graphs

from conftest import random_graph, relabel


# ---------------------------------------------------------------------------
# Graph and VertexSet basics
# ---------------------------------------------------------------------------

def test_graph_validates_symmetry():
    for n, rows in [(2, [0b10, 0b00]), (3, [0b110, 0b001, 0b000])]:
        with pytest.raises(ValueError, match="not symmetric"):
            Graph(n, rows)


def test_graph_rejects_self_loops():
    for n, rows in [(1, [0b1]), (3, [0b010, 0b011, 0b000])]:
        with pytest.raises(ValueError, match="self-loop"):
            Graph(n, rows)
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(1, 1)])


def test_graph_rejects_out_of_range_bits():
    for n, rows in [(1, [0b10]), (2, [0b110, 0b001]), (2, [-1, 0])]:
        with pytest.raises(ValueError, match="outside"):
            Graph(n, rows)


def test_graph_edges_round_trip():
    g = Graph.from_edges(5, [(0, 1), (2, 4), (1, 3)])
    assert g.edges() == [(0, 1), (1, 3), (2, 4)]
    assert g.degrees() == [1, 2, 1, 1, 1]
    assert g.has_edge(4, 2) and not g.has_edge(0, 4)


def test_graph_immutable_and_hashable():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 7
    assert g == Graph.from_edges(3, [(1, 0), (2, 1)])
    assert hash(g) == hash(path_graph(3))


def test_add_remove_edge_and_vertex():
    g = path_graph(3)
    g2 = g.add_edge(0, 2)
    assert g2.has_edge(0, 2) and not g.has_edge(0, 2)
    assert g2.remove_edge(0, 2) == g
    g3 = g.add_vertex([0, 2])
    assert g3.n == 4 and g3.has_edge(3, 0) and g3.has_edge(3, 2)
    assert g3.remove_vertex(3) == g
    with pytest.raises(ValueError):
        g.add_edge(0, 1)
    with pytest.raises(ValueError):
        g.remove_edge(0, 2)


def test_edits_reject_out_of_range_vertices():
    g = path_graph(3)
    edits = [
        (lambda: g.add_edge(0, 5), 5), (lambda: g.add_edge(-1, 0), -1),
        (lambda: g.remove_edge(0, 3), 3), (lambda: g.remove_edge(0, -1), -1),
        (lambda: g.add_vertex([0, 3]), 3), (lambda: g.add_vertex([-1]), -1),
        (lambda: g.remove_vertex(3), 3),
    ]
    for edit, v in edits:
        with pytest.raises(ValueError, match=rf"^vertex {v} out of range \[0, 3\)$"):
            edit()


def test_queries_reject_out_of_range_vertices():
    g = path_graph(3)
    queries = [
        (lambda: g.has_edge(-1, 1), -1), (lambda: g.has_edge(5, 0), 5),
        (lambda: g.has_edge(0, 5), 5), (lambda: g.has_edge(0, -2), -2),
        (lambda: g.closed(-1), -1), (lambda: g.closed(3), 3),
    ]
    for query, v in queries:
        with pytest.raises(ValueError, match=rf"^vertex {v} out of range \[0, 3\)$"):
            query()
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert g.closed(0) == 0b011 and g.closed(1) == 0b111


def test_vertex_set_algebra():
    a = VertexSet.of(5, [0, 2])
    assert sorted(a.complement()) == [1, 3, 4]
    assert len(a) == 2 and 2 in a and 1 not in a
    assert a and not VertexSet(5, 0)
    with pytest.raises(ValueError):
        VertexSet.of(3, [3])


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def test_graph6_forced_values():
    assert encode_graph6(complete_graph(1)) == "@"
    assert parse_graph6("@") == empty_graph(1)
    assert encode_graph6(complete_graph(2)) == "A_"
    assert parse_graph6("A_") == complete_graph(2)
    assert encode_graph6(empty_graph(0)) == "?"
    assert parse_graph6("?").n == 0


def test_graph6_known_record_round_trips():
    g = parse_graph6("DQc")
    assert g.n == 5
    assert encode_graph6(g) == "DQc"


def test_graph6_header_and_newline_tolerated():
    assert parse_graph6(">>graph6<<A_\n") == complete_graph(2)


def test_graph6_random_round_trips(rng):
    for _ in range(300):
        n = rng.randrange(0, 14)
        g = random_graph(n, rng.random(), rng)
        assert parse_graph6(encode_graph6(g)) == g


def _pairwise_graph6(g):
    """graph6 one vertex pair at a time, column by column (n < 258048)."""
    n = g.n
    head = [n + 63] if n <= 62 else [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    chars = [chr(c) for c in head]
    acc = filled = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | (g.adj[i] >> j & 1)
            filled += 1
            if filled == 6:
                chars.append(chr(acc + 63))
                acc = filled = 0
    if filled:
        chars.append(chr((acc << (6 - filled)) + 63))
    return "".join(chars)


def test_graph6_encoder_matches_the_pairwise_encoding():
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            assert encode_graph6(g) == _pairwise_graph6(g)
    r = random.Random(20261022)
    # across the one-byte/four-byte size header at 62/63
    for n in (60, 61, 62, 63, 64, 65, 100, 127, 200, 300):
        for p in (0.0, 0.05, 0.5, 1.0):
            g = random_graph(n, p, r)
            s = encode_graph6(g)
            assert s == _pairwise_graph6(g), (n, p)
            assert parse_graph6(s) == g


def test_graph6_long_size_form():
    g = empty_graph(63)
    s = encode_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g
    g2 = path_graph(70)
    assert parse_graph6(encode_graph6(g2)) == g2


def test_graph6_errors_name_byte_offsets():
    with pytest.raises(GraphParseError, match="offset 1"):
        parse_graph6("A" + chr(32))
    with pytest.raises(GraphParseError, match="truncated"):
        parse_graph6("D")
    with pytest.raises(GraphParseError, match="trailing"):
        parse_graph6("A_q")
    with pytest.raises(GraphParseError, match="padding"):
        parse_graph6("A" + chr(63 + 1))
    with pytest.raises(GraphParseError, match="non-canonical"):
        parse_graph6("~??A_")
    with pytest.raises(GraphParseError, match="empty"):
        parse_graph6("")


def test_graph6_batch_lines():
    text = "@\nA_\n\nDQc\n"
    gs = parse_graph6_lines(text)
    assert [g.n for g in gs] == [1, 2, 5]
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph6_lines("@\nA \n")


# ---------------------------------------------------------------------------
# Edge lists
# ---------------------------------------------------------------------------

def test_edge_list_basics():
    assert parse_edge_list("n 2\n0 1") == complete_graph(2)
    assert parse_edge_list("n 3\n0 1\n1 2\n0 1") == path_graph(3)
    g = parse_edge_list("n 4\n")
    assert g == empty_graph(4)


def test_edge_list_errors_name_lines():
    with pytest.raises(GraphParseError, match="line 2: self-loop"):
        parse_edge_list("n 1\n0 0")
    with pytest.raises(GraphParseError, match="line 3: vertex out of range"):
        parse_edge_list("n 2\n0 1\n0 2")
    with pytest.raises(GraphParseError, match="line 1"):
        parse_edge_list("2\n0 1")
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("n 2\n0 x")


def test_edge_list_round_trip(rng):
    for _ in range(50):
        g = random_graph(rng.randrange(0, 10), 0.4, rng)
        assert parse_edge_list(encode_edge_list(g)) == g


# ---------------------------------------------------------------------------
# Complement, components, induced subgraphs
# ---------------------------------------------------------------------------

def test_complement_examples():
    assert complement(complete_graph(3)) == empty_graph(3)
    p4 = path_graph(4)
    assert complement(complement(p4)) == p4
    c5 = cycle_graph(5)
    assert relabel(complement(c5), [0, 2, 4, 1, 3]) == c5


def test_components_partition(rng):
    for _ in range(80):
        g = random_graph(rng.randrange(0, 9), 0.25, rng)
        parts = components(g)
        seen = 0
        for vs, comp in parts:
            assert comp.n == len(vs)
            assert not seen & vs.mask
            seen |= vs.mask
            order = vs.to_list()
            for u, v in comp.edges():
                assert g.has_edge(order[u], order[v])
        assert seen == g.full_mask
        total_edges = sum(len(comp.edges()) for _, comp in parts)
        assert total_edges == len(g.edges())  # no edges between parts


def test_derived_graphs_equal_validated_rebuild(rng):
    for _ in range(60):
        g = random_graph(rng.randrange(1, 9), rng.random(), rng)
        derived = [complement(g), g.add_vertex(v for v in range(g.n) if rng.random() < 0.5)]
        derived.append(g.remove_vertex(rng.randrange(g.n)))
        derived.append(induced_subgraph(g, VertexSet(g.n, rng.getrandbits(g.n))))
        derived.extend(comp for _, comp in components(g))
        non_edges = complement(g).edges()
        if non_edges:
            derived.append(g.add_edge(*rng.choice(non_edges)))
        if g.edges():
            derived.append(g.remove_edge(*rng.choice(g.edges())))
        for h in derived:
            # the public constructor re-checks what the derived one skipped
            assert h == Graph(h.n, h.adj)


def test_components_memoized_and_connected_graph_is_its_own_part():
    c6 = cycle_graph(6)
    refs = sys.getrefcount(c6)
    components(c6)
    # a connected graph memoizes its vertex set, not a tuple holding itself,
    # which would be a reference cycle
    assert sys.getrefcount(c6) == refs
    assert components(c6)[0][0] is components(c6)[0][0]
    (vs, comp), = components(c6)
    assert vs == VertexSet(6, c6.full_mask) and comp is c6
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert components(two) is components(two)
    assert components(empty_graph(0)) == ()


def test_pickle_round_trips_graph_with_memoized_components():
    for g in (cycle_graph(5), Graph.from_edges(5, [(0, 1), (2, 3)])):
        parts = components(g)
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g)
        assert components(back) == parts


def test_components_examples():
    two = Graph.from_edges(3, [(0, 1)])
    sizes = sorted(comp.n for _, comp in components(two))
    assert sizes == [1, 2]
    assert len(components(cycle_graph(6))) == 1
    assert len(components(empty_graph(4))) == 4


def test_induced_subgraph_examples():
    assert induced_subgraph(cycle_graph(4), VertexSet.of(4, [])) == empty_graph(0)
    assert induced_subgraph(cycle_graph(4), VertexSet.of(4, [0, 1, 2])) == path_graph(3)
    assert induced_subgraph(path_graph(5), VertexSet.of(5, [0, 2, 4])) == empty_graph(3)


def _neighbour_lists(g):
    return [[u for u in range(g.n) if g.adj[v] >> u & 1] for v in range(g.n)]


def _reference_components(g):
    """Sorted vertex lists of the components, by a depth-first search from
    each unplaced vertex in ascending order."""
    nbrs = _neighbour_lists(g)
    placed = [False] * g.n
    parts = []
    for s in range(g.n):
        if placed[s]:
            continue
        placed[s] = True
        stack, part = [s], []
        while stack:
            v = stack.pop()
            part.append(v)
            for u in nbrs[v]:
                if not placed[u]:
                    placed[u] = True
                    stack.append(u)
        parts.append(sorted(part))
    return parts


def _reference_induced_rows(g, vertices):
    """Rows of the subgraph on the sorted list ``vertices``, pair by pair."""
    return tuple(sum(1 << j for j, u in enumerate(vertices) if g.adj[v] >> u & 1)
                 for v in vertices)


def _interleaved_forests():
    # each vertex joins an earlier one or starts a new tree, so many parts
    # are isolated vertices, and shuffled labels interleave the parts
    r = random.Random(20261022)
    for _ in range(40):
        n = r.randrange(20, 200)
        edges = [(v, r.randrange(v)) for v in range(1, n) if r.random() < 0.6]
        perm = list(range(n))
        r.shuffle(perm)
        yield Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def test_plumbing_matches_per_vertex_references():
    r = random.Random(33)
    graphs = [g for n in range(7) for g in enumerate_labeled_graphs(n)]
    for g in graphs + list(_interleaved_forests()):
        parts = components(g)
        want = _reference_components(g)
        assert [vs.to_list() for vs, _ in parts] == want
        assert [comp.adj for _, comp in parts] == [_reference_induced_rows(g, vs) for vs in want]
        mask = r.getrandbits(g.n)
        rows = induced_subgraph(g, VertexSet(g.n, mask)).adj
        assert rows == _reference_induced_rows(g, [v for v in range(g.n) if mask >> v & 1])
        assert leaf_profile(g) == _reference_leaf_profile(g)


# ---------------------------------------------------------------------------
# Leaves and supports
# ---------------------------------------------------------------------------

def test_leaf_support_vocabulary():
    p4 = leaf_profile(path_graph(4))
    assert list(_bits(p4.leaves)) == [0, 3]
    assert list(_bits(p4.weak)) == [1, 2]
    assert not p4.strong

    star = leaf_profile(complete_bipartite_graph(1, 3))
    assert list(_bits(star.leaves)) == [1, 2, 3]
    assert list(_bits(star.strong)) == [0]
    assert not star.weak

    c5 = leaf_profile(cycle_graph(5))
    assert not c5.leaves and not c5.weak and not c5.strong


def test_supports_disjoint_and_cover_leaves(rng):
    for _ in range(120):
        g = random_graph(rng.randrange(1, 9), 0.3, rng)
        prof = leaf_profile(g)
        assert not prof.weak & prof.strong
        for v in _bits(prof.leaves):
            # a leaf's row is the single bit of its support
            assert g.adj[v].bit_count() == 1 and g.adj[v] & (prof.weak | prof.strong)


def _with_small_parts(g: Graph, k2: bool, isolated: bool) -> Graph:
    """g plus, optionally, a disjoint K2 and a disjoint isolated vertex."""
    edges = g.edges()
    n = g.n
    if k2:
        edges.append((n, n + 1))
        n += 2
    return Graph.from_edges(n + isolated, edges)


def _reference_leaf_profile(g):
    """(leaves, weak, strong, strong_leaves) from the degree definitions."""
    nbrs = _neighbour_lists(g)
    leaf_set = [v for v in range(g.n) if len(nbrs[v]) == 1]
    leaf_nbrs = [sum(u in leaf_set for u in nbrs[v]) for v in range(g.n)]
    strong = [v for v in range(g.n) if leaf_nbrs[v] >= 2]

    def mask(vs):
        return sum(1 << v for v in vs)

    return (mask(leaf_set), mask(v for v in range(g.n) if leaf_nbrs[v] == 1), mask(strong),
            mask(v for v in leaf_set if nbrs[v][0] in strong))


def test_leaf_profile_matches_degree_definitions(rng):
    for _ in range(200):
        base = random_graph(rng.randrange(0, 8), rng.choice([0.15, 0.3, 0.5]), rng)
        g = _with_small_parts(base, rng.random() < 0.4, rng.random() < 0.4)
        prof = leaf_profile(g)
        assert prof == _reference_leaf_profile(g)
        assert leaf_profile(g) is prof


def test_leaf_profile_of_k2_and_isolated_vertex():
    prof = leaf_profile(Graph.from_edges(3, [(0, 1)]))
    # each end of K2 is a leaf and the weak support of the other end
    assert (prof.leaves, prof.weak, prof.strong, prof.strong_leaves) == (0b11, 0b11, 0, 0)


def test_pickle_round_trips_graph_with_memoized_leaf_profile():
    for g in (complete_bipartite_graph(1, 3), path_graph(4), Graph.from_edges(5, [(0, 1)])):
        prof = leaf_profile(g)
        back = pickle.loads(pickle.dumps(g))
        assert back == g and leaf_profile(back) == prof
