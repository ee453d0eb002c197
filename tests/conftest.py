import json

import pytest

from coxtwist import fusion
from coxtwist.coxgraph import parse_graph

from reference import ref_ring_table

# The standing corpus used across test modules: two finite simply-laced graphs,
# two finite dihedral ones, a mixed-label chain, the infinite dihedral graph,
# and the affine graph with a 6-label.
CORPUS_JSON = {
    "a2": '{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":3}]}',
    "a3": '{"vertices":["s","t","u"],"edges":[{"ends":["s","t"],"m":3},{"ends":["t","u"],"m":3}]}',
    "i2_4": '{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":4}]}',
    "i2_5": '{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":5}]}',
    "chain45": '{"vertices":["s","t","u"],"edges":[{"ends":["s","t"],"m":4},{"ends":["t","u"],"m":5}]}',
    "rank2_inf": '{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":"inf"}]}',
    "g2_affine": '{"vertices":["a","b","c"],"edges":[{"ends":["a","b"],"m":6},{"ends":["b","c"],"m":3}]}',
}

FINITE_CORPUS = ("a2", "a3", "i2_4", "i2_5")


@pytest.fixture(scope="session")
def corpus():
    return {name: parse_graph(text) for name, text in CORPUS_JSON.items()}


def graph_json(vertices, edges):
    """Assemble graph JSON from a vertex list and (u, v, m) triples."""
    return json.dumps(
        {
            "vertices": list(vertices),
            "edges": [{"ends": [u, v], "m": m} for u, v, m in edges],
        }
    )


@pytest.fixture
def make_graph():
    return lambda vertices, edges: parse_graph(graph_json(vertices, edges))


@pytest.fixture(autouse=True, scope="session")
def planes_equal_the_reference_table():
    """Every ring plane any test builds equals that plane of the ring's
    whole table, written out by the reference triple loop."""
    build = fusion._plane

    def checked(factors, j):
        plane = build(factors, j)
        assert plane == ref_ring_table(factors)[j], (factors, j)
        return plane

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "_plane", checked)
        yield
