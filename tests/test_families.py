import pytest

from certdom import (
    FamilySpecError,
    complete_bipartite_graph,
    complete_graph,
    corona,
    cycle_graph,
    diadem,
    empty_graph,
    fig1_graph,
    fig3a_graph,
    fig3a_marked_edge,
    fig3b_graph,
    fig3b_missing_edge,
    fig4_graph,
    is_connected,
    parse_family_spec,
    path_graph,
    wheel_graph,
)
from certdom.graphs import _bits, leaf_profile
from certdom.structure import is_path


def test_corona_shape():
    g = corona(cycle_graph(4), complete_graph(1))
    assert g.n == 8
    assert g.degrees() == [3, 3, 3, 3, 1, 1, 1, 1]
    h = corona(path_graph(2), path_graph(2))
    assert h.n == 2 * (1 + 2) == 6
    # base vertex joined to all of its own fringe copy only
    assert h.has_edge(0, 2) and h.has_edge(0, 3) and not h.has_edge(0, 4)


def test_corona_of_single_vertices_is_an_edge():
    assert corona(complete_graph(1), complete_graph(1)) == complete_graph(2)


def test_corona_pendant_property():
    # each vertex of a corona with a 1-vertex fringe is a leaf or has
    # exactly one leaf neighbour
    for base in (cycle_graph(5), path_graph(4), complete_graph(3)):
        g = corona(base, complete_graph(1))
        lm = leaf_profile(g).leaves
        for v in range(g.n):
            if lm >> v & 1:
                continue
            assert (g.adj[v] & lm).bit_count() == 1


def test_diadem_shape():
    assert is_path(diadem(complete_graph(1)))  # smallest diadem is a 3-path
    g = diadem(cycle_graph(3))
    assert g.n == 2 * 3 + 1
    assert g.degrees()[0] == 4  # base vertex 0 carries both extra leaves
    assert list(_bits(leaf_profile(g).leaves)) == [3, 4, 5, 6]


def test_figure_families_vertex_counts():
    for i in range(1, 6):
        assert fig1_graph(i).n == 4 * i + 3
        assert fig3a_graph(i).n == 2 * i + 4
        assert fig3b_graph(i).n == 2 * i + 4
        assert fig4_graph(i).n == 2 * i + 1


def test_fig3_layouts():
    a = fig3a_graph(2)
    assert is_connected(a)
    u, v = fig3a_marked_edge()
    assert a.has_edge(u, v)
    b = fig3b_graph(2)
    assert not is_connected(b)
    assert b.degrees()[3] == 0
    x, y = fig3b_missing_edge()
    assert not b.has_edge(x, y)
    assert is_connected(b.add_edge(x, y))


def test_fig4_smallest_is_3path():
    assert is_path(fig4_graph(1))
    g = fig4_graph(2)
    assert g.n == 5 and g.degrees() == [2, 2, 1, 2, 1]


def test_wheel_layout():
    w = wheel_graph(6)
    assert w.degrees() == [5, 3, 3, 3, 3, 3]
    assert wheel_graph(4) == complete_graph(4)


def test_family_parameter_validation():
    for bad in (
        lambda: cycle_graph(2),
        lambda: wheel_graph(3),
        lambda: path_graph(0),
        lambda: fig1_graph(0),
        lambda: parse_family_spec("complete-bipartite 3 2"),
    ):
        with pytest.raises(FamilySpecError):
            bad()


def test_parse_family_spec_round_trips():
    cases = {
        "path 7": path_graph(7),
        "cycle 5": cycle_graph(5),
        "complete 4": complete_graph(4),
        "complete-bipartite 2 3": complete_bipartite_graph(2, 3),
        "wheel 8": wheel_graph(8),
        "empty 3": empty_graph(3),
        "fig3a 2": fig3a_graph(2),
        "corona (cycle 5) (complete 1)": corona(cycle_graph(5), complete_graph(1)),
        "diadem (complete 3)": diadem(complete_graph(3)),
        "corona (corona (path 2) (complete 1)) (complete 1)": corona(
            corona(path_graph(2), complete_graph(1)), complete_graph(1)
        ),
    }
    for text, want in cases.items():
        assert parse_family_spec(text) == want


def test_parse_family_spec_errors():
    for bad in ("", "path", "path x", "corona cycle 5", "path 3 4", "diadem (path 2", "frob 3",
                "path --3"):
        with pytest.raises(FamilySpecError):
            parse_family_spec(bad)


def test_parse_family_spec_reads_the_whole_text_before_building():
    # each spec has a syntax fault and a parameter out of range: the syntax
    # fault is the one reported
    for text, message in (
        ("cycle 2 4", r"trailing tokens after family spec: \['4'\]"),
        ("corona (cycle 2) (frob 1)", "unknown family kind 'frob'"),
    ):
        with pytest.raises(FamilySpecError, match=message):
            parse_family_spec(text)
    with pytest.raises(FamilySpecError, match="cycle needs n >= 3"):
        parse_family_spec("corona (cycle 2) (complete 1)")
