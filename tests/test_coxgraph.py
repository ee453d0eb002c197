import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxtwist import coxgraph
from coxtwist.coxgraph import (
    INF,
    GraphError,
    InvariantError,
    gram_matrix,
    is_finite_type,
    parse_graph,
)

from conftest import graph_json

GOLDEN = (1 + math.sqrt(5)) / 2


def test_parse_i2_5():
    g = parse_graph('{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":5}]}')
    assert g.vertices == ("s", "t")
    assert g.edges == ((0, 1, 5),)
    assert g.label(0, 1) == 5
    assert g.label(1, 0) == 5
    assert g.label(0, 0) == 1


def test_parse_edgeless_vertex():
    g = parse_graph('{"vertices":["s"],"edges":[]}')
    assert g.vertices == ("s",)
    assert g.edges == ()


def test_parse_keeps_document_vertex_order():
    g = parse_graph('{"vertices":["z","a","m"],"edges":[]}')
    assert g.vertices == ("z", "a", "m")
    assert g.index("m") == 2


def test_parse_infinite_label():
    g = parse_graph('{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":"inf"}]}')
    assert g.label(0, 1) == INF


def test_absent_edge_means_label_two():
    g = parse_graph('{"vertices":["s","t","u"],"edges":[{"ends":["s","t"],"m":3}]}')
    assert g.label(0, 2) == 2
    assert g.label(1, 2) == 2


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[1,2,3]",
        '{"vertices":["s","s"],"edges":[]}',
        '{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":2}]}',
        '{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":1}]}',
        '{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":-4}]}',
        '{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":3.5}]}',
        '{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":true}]}',
        '{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":"infinity"}]}',
        '{"vertices":["s","t"],"edges":[{"ends":["s","x"],"m":3}]}',
        '{"vertices":["s","t"],"edges":[{"ends":["s","s"],"m":3}]}',
        '{"vertices":["s","t"],"edges":[{"ends":["s"],"m":3}]}',
        '{"vertices":["s","t"],"edges":[{"ends":["s","t","u"],"m":3}]}',
        '{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":3},{"ends":["t","s"],"m":4}]}',
        '{"vertices":["s",7],"edges":[]}',
        '{"vertices":["s","t"]}',
        '{"edges":[]}',
        '{"vertices":["s","t"],"edges":[{"m":3}]}',
    ],
)
def test_parse_rejects_malformed_documents(text):
    with pytest.raises(GraphError):
        parse_graph(text)


def test_gram_matrix_single_vertex():
    g = parse_graph('{"vertices":["s"],"edges":[]}')
    assert np.array_equal(gram_matrix(g), np.array([[2.0]]))


def test_gram_matrix_i2_5():
    g = parse_graph('{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":5}]}')
    b = gram_matrix(g)
    assert b[0][0] == 2 and b[1][1] == 2
    # 2cos(pi/5) is the golden ratio
    assert abs(b[0][1] + GOLDEN) < 1e-12
    assert b[0][1] == b[1][0]


def test_gram_matrix_infinite_label_is_minus_two():
    g = parse_graph('{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":"inf"}]}')
    b = gram_matrix(g)
    assert b[0][1] == -2.0


def test_gram_matrix_no_edge_is_zero(make_graph):
    g = make_graph(["s", "t", "u"], [("s", "t", 3)])
    b = gram_matrix(g)
    assert b[0][2] == 0.0 and b[1][2] == 0.0


FINITE_SHAPES = [
    (["s"], []),
    (["s", "t"], [("s", "t", 3)]),
    (["s", "t", "u"], [("s", "t", 3), ("t", "u", 3)]),
    (["s", "t"], [("s", "t", 4)]),
    (["s", "t"], [("s", "t", 5)]),
    (["s", "t"], [("s", "t", 6)]),
    (["s", "t"], [("s", "t", 7)]),
    (["s", "t"], [("s", "t", 100)]),
    # B3, B4: the 4-label sits at an end of the path
    (["1", "2", "3"], [("1", "2", 4), ("2", "3", 3)]),
    (["1", "2", "3", "4"], [("1", "2", 3), ("2", "3", 3), ("3", "4", 4)]),
    # F4: the 4-label in the middle of a 4-vertex path
    (["1", "2", "3", "4"], [("1", "2", 3), ("2", "3", 4), ("3", "4", 3)]),
    # H3, H4: the 5-label at an end
    (["1", "2", "3"], [("1", "2", 5), ("2", "3", 3)]),
    (["1", "2", "3", "4"], [("1", "2", 5), ("2", "3", 3), ("3", "4", 3)]),
    # D4, D5
    (["c", "x", "y", "z"], [("c", "x", 3), ("c", "y", 3), ("c", "z", 3)]),
    (["c", "x", "y", "1", "2"], [("c", "x", 3), ("c", "y", 3), ("c", "1", 3), ("1", "2", 3)]),
    # E6, E7, E8 as branch lengths (1, 2, 2), (1, 2, 3), (1, 2, 4)
    (
        ["c", "x", "a1", "a2", "b1", "b2"],
        [("c", "x", 3), ("c", "a1", 3), ("a1", "a2", 3), ("c", "b1", 3), ("b1", "b2", 3)],
    ),
    (
        ["c", "x", "a1", "a2", "b1", "b2", "b3"],
        [
            ("c", "x", 3),
            ("c", "a1", 3),
            ("a1", "a2", 3),
            ("c", "b1", 3),
            ("b1", "b2", 3),
            ("b2", "b3", 3),
        ],
    ),
    (
        ["c", "x", "a1", "a2", "b1", "b2", "b3", "b4"],
        [
            ("c", "x", 3),
            ("c", "a1", 3),
            ("a1", "a2", 3),
            ("c", "b1", 3),
            ("b1", "b2", 3),
            ("b2", "b3", 3),
            ("b3", "b4", 3),
        ],
    ),
    # disjoint union of finite pieces
    (["s", "t", "u", "v"], [("s", "t", 5), ("u", "v", 4)]),
]

INFINITE_SHAPES = [
    (["s", "t"], [("s", "t", "inf")]),
    # affine G2: 6-label on a 3-vertex path
    (["a", "b", "c"], [("a", "b", 6), ("b", "c", 3)]),
    (["s", "t", "u"], [("s", "t", 4), ("t", "u", 5)]),
    # affine A2: triangle
    (["a", "b", "c"], [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)]),
    # affine C2: two 4-labels
    (["a", "b", "c"], [("a", "b", 4), ("b", "c", 4)]),
    # affine F4: 4-label in the middle of a 5-vertex path
    (
        ["1", "2", "3", "4", "5"],
        [("1", "2", 3), ("2", "3", 4), ("3", "4", 3), ("4", "5", 3)],
    ),
    # 5-label in the middle of a path is not a Coxeter-Dynkin shape
    (["1", "2", "3", "4"], [("1", "2", 3), ("2", "3", 5), ("3", "4", 3)]),
    # H5 does not exist
    (
        ["1", "2", "3", "4", "5"],
        [("1", "2", 5), ("2", "3", 3), ("3", "4", 3), ("4", "5", 3)],
    ),
    # 6-label at the end of a 3-vertex path, reordered
    (["a", "b", "c"], [("b", "c", 6), ("a", "b", 3)]),
    # degree-4 branch vertex (affine D4)
    (
        ["c", "1", "2", "3", "4"],
        [("c", "1", 3), ("c", "2", 3), ("c", "3", 3), ("c", "4", 3)],
    ),
    # two branch vertices (affine D-chain)
    (
        ["a", "b", "c", "d", "e", "f"],
        [("a", "c", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3), ("d", "f", 3)],
    ),
    # affine E6: branch lengths (2, 2, 2)
    (
        ["c", "a1", "a2", "b1", "b2", "d1", "d2"],
        [
            ("c", "a1", 3),
            ("a1", "a2", 3),
            ("c", "b1", 3),
            ("b1", "b2", 3),
            ("c", "d1", 3),
            ("d1", "d2", 3),
        ],
    ),
    # affine E8: branch lengths (1, 2, 5)
    (
        ["c", "x", "a1", "a2", "b1", "b2", "b3", "b4", "b5"],
        [
            ("c", "x", 3),
            ("c", "a1", 3),
            ("a1", "a2", 3),
            ("c", "b1", 3),
            ("b1", "b2", 3),
            ("b2", "b3", 3),
            ("b3", "b4", 3),
            ("b4", "b5", 3),
        ],
    ),
    # one infinite component poisons the union
    (["s", "t", "u", "v"], [("s", "t", 3), ("u", "v", "inf")]),
]


@pytest.mark.parametrize("vertices,edges", FINITE_SHAPES)
def test_finite_type_recognized(make_graph, vertices, edges):
    assert is_finite_type(make_graph(vertices, edges)) is True


@pytest.mark.parametrize("vertices,edges", INFINITE_SHAPES)
def test_infinite_type_recognized(make_graph, vertices, edges):
    assert is_finite_type(make_graph(vertices, edges)) is False


@pytest.mark.parametrize("vertices,edges", FINITE_SHAPES + INFINITE_SHAPES)
def test_gram_eigenvalue_sign_matches_classification(make_graph, vertices, edges):
    g = make_graph(vertices, edges)
    smallest = min(np.linalg.eigvalsh(gram_matrix(g)))
    if is_finite_type(g):
        assert smallest > 1e-9
    else:
        assert smallest <= 1e-9


def _random_graph_data(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            m = draw(st.sampled_from([2, 2, 2, 3, 3, 4, 5, 6, 7, "inf"]))
            if m != 2:
                edges.append((names[i], names[j], m))
    return names, edges


@st.composite
def random_graphs(draw):
    return _random_graph_data(draw)


@settings(max_examples=60, deadline=None)
@given(data=random_graphs(), seed=st.randoms(use_true_random=False))
def test_finite_type_invariant_under_relabeling(data, seed):
    vertices, edges = data
    g = parse_graph(graph_json(vertices, edges))
    shuffled = list(vertices)
    seed.shuffle(shuffled)
    rename = dict(zip(vertices, shuffled))
    h = parse_graph(
        graph_json(sorted(shuffled), [(rename[u], rename[v], m) for u, v, m in edges])
    )
    assert is_finite_type(g) == is_finite_type(h)


def test_gram_matrix_is_symmetric_with_bounded_entries(make_graph):
    g = make_graph(
        ["a", "b", "c", "d"],
        [("a", "b", 7), ("b", "c", "inf"), ("c", "d", 3)],
    )
    b = np.asarray(gram_matrix(g))
    assert np.array_equal(b, b.T)
    assert np.all(np.diag(b) == 2.0)
    assert np.all(np.abs(b) <= 2.0)


def test_classification_disagreement_is_invariant_error(make_graph, monkeypatch):
    monkeypatch.setattr(coxgraph, "_smallest_pivot", lambda b: 0.0)
    with pytest.raises(InvariantError, match="disagrees"):
        is_finite_type(make_graph(["s", "t"], [("s", "t", 3)]))


def test_induced_subgraph_keeps_labels(make_graph):
    g = make_graph(["s", "t", "u"], [("s", "t", 4), ("t", "u", 5)])
    h = g.induced(("t", "u"))
    assert h.vertices == ("t", "u")
    assert h.edges == ((0, 1, 5),)


def test_components(make_graph):
    g = make_graph(["s", "t", "u", "v"], [("s", "t", 3), ("u", "v", 4)])
    assert g.components() == ((0, 1), (2, 3))


def test_json_round_trip(make_graph):
    g = make_graph(["s", "t", "u"], [("s", "t", 4), ("t", "u", "inf")])
    again = parse_graph(json.dumps(g.to_json_dict()))
    assert again == g
