"""The twist word problems against the Garside normal form.

The oracle in garside.py decides the word problem of the Artin group
from the Coxeter group alone.  Artin identity implies twist identity,
and the converse is faithfulness: Khovanov-Seidel (arXiv:math/0006056)
in type A, Brav-Thomas (arXiv:0910.2521) in types ADE, and Crisp's
foldings for the other finite types.  So the two verdicts must agree on
every word.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxtwist.coxgraph import parse_graph
from coxtwist.homotopy import is_identity_word, words_equal
from coxtwist.unfolding import unfold
from coxtwist.zigzag import build_zigzag

from conftest import graph_json
from garside import FiniteCoxeterGroup

# name -> (vertices, edges, number of roots, Coxeter number)
GRAPHS = {
    "a3": ("stu", [("s", "t", 3), ("t", "u", 3)], 12, 4),
    "i2_4": ("st", [("s", "t", 4)], 8, 4),
    "i2_5": ("st", [("s", "t", 5)], 10, 5),
    "i2_6": ("st", [("s", "t", 6)], 12, 6),
    "h3": ("stu", [("s", "t", 5), ("t", "u", 3)], 30, 10),
    "b3": ("stu", [("s", "t", 4), ("t", "u", 3)], 18, 6),
    "d4": ("stuv", [("s", "t", 3), ("t", "u", 3), ("t", "v", 3)], 24, 6),
}


@functools.cache
def group(name):
    vertices, edges, _, _ = GRAPHS[name]
    return FiniteCoxeterGroup(vertices, edges)


@functools.cache
def twists(name):
    vertices, edges, _, _ = GRAPHS[name]
    u = unfold(parse_graph(graph_json(vertices, edges)))
    return build_zigzag(u), u


def inverse(word):
    return tuple((v, -exp) for v, exp in reversed(word))


def positive(names):
    return tuple((v, 1) for v in names)


def braid_relators(name):
    """s t s ... (m letters) times the inverse of t s t ... (m letters),
    for every pair of vertices, m = 2 where there is no edge."""
    vertices, edges, _, _ = GRAPHS[name]
    label = {frozenset((u, v)): m for u, v, m in edges}
    out = []
    for i, s in enumerate(vertices):
        for t in vertices[i + 1:]:
            m = label.get(frozenset((s, t)), 2)
            out.append(
                positive((s, t)[k % 2] for k in range(m))
                + inverse(positive((t, s)[k % 2] for k in range(m)))
            )
    return out


def coxeter_delta(name):
    """c^(h/2) for the Coxeter element c = s t u ...: a reduced word for
    w0 on these graphs, where w0 = -1."""
    vertices, _, _, h = GRAPHS[name]
    return positive(tuple(vertices) * (h // 2))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_root_system_and_longest_element(name):
    W = group(name)
    _, _, roots, _ = GRAPHS[name]
    assert len(W.roots) == roots
    assert len(W.negative) == roots // 2 == W.length(W.w0)
    assert W.right_descents(W.w0) == W.left_descents(W.w0) == set(W.vertices)


@pytest.mark.parametrize("name", ["h3", "b3", "d4"])
def test_coxeter_delta_is_a_reduced_word_for_w0(name):
    W = group(name)
    delta = coxeter_delta(name)
    assert W.element(v for v, _ in delta) == W.w0
    assert len(delta) == W.length(W.w0)
    # Delta^2 is central in the Artin group
    square = delta + delta
    for v in W.vertices:
        assert W.is_identity(((v, 1),) + square + ((v, -1),) + inverse(square))


def test_oracle_separates_the_artin_group_from_w():
    W = group("a3")
    # s s is trivial in W, not in the Artin group
    assert not W.is_identity((("s", 1), ("s", 1)))
    assert W.is_identity((("s", 1), ("s", -1)))
    assert W.is_identity((("s", -1), ("s", 1)))
    for word in braid_relators("a3"):
        assert W.is_identity(word)
        # dropping or inverting one letter breaks it
        assert not W.is_identity(word[1:])
        assert not W.is_identity(((word[0][0], -word[0][1]),) + word[1:])


@st.composite
def oracle_words(draw):
    name = draw(st.sampled_from(sorted(GRAPHS)))
    W = group(name)
    letter = st.tuples(st.sampled_from(W.vertices), st.sampled_from((1, -1)))
    word = tuple(draw(st.lists(letter, max_size=4)))
    kind = draw(st.sampled_from(("random", "relator", "broken relator")))
    if kind != "random":
        relator = list(draw(st.sampled_from(braid_relators(name))))
        if kind == "broken relator":
            k = draw(st.integers(0, len(relator) - 1))
            v, exp = relator[k]
            relator[k] = (v, -exp)
        word = word + tuple(relator) + inverse(word)
    return name, word


@settings(max_examples=60, deadline=None)
@given(case=oracle_words())
def test_is_identity_word_matches_the_garside_verdict(case):
    name, word = case
    A, u = twists(name)
    assert is_identity_word(A, u, word) == group(name).is_identity(word)


@settings(max_examples=40, deadline=None)
@given(case=oracle_words(), other=st.data())
def test_words_equal_matches_the_garside_verdict(case, other):
    name, first = case
    W = group(name)
    letter = st.tuples(st.sampled_from(W.vertices), st.sampled_from((1, -1)))
    second = tuple(other.draw(st.lists(letter, max_size=4)))
    A, u = twists(name)
    assert words_equal(A, u, first + second, second) == W.is_identity(first)
    assert words_equal(A, u, first, second) == W.is_identity(first + inverse(second))
