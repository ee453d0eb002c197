"""The word problem in a finite-type Artin group, by Garside normal form.

An independent oracle for the twist verdicts: it builds nothing from the
fusion ring, the unfolding or the zigzag algebra.  The Coxeter group W
acts on its finite root set, realised in floats in the geometric
representation (B(a_s, a_t) = -cos(pi / m)); an element of W is the
permutation of root indices it induces.  Simple elements of the Artin
monoid are the elements of W, Delta being the longest element w0
(Brieskorn-Saito; Deligne 1972).

A word with inverse letters is brought to Delta^-k P with P positive:
s^-1 = Delta^-1 (w0 s), since (w0 s) s = w0 with lengths adding, and a
factor x passes Delta^-1 leftwards as w0 x w0.  P is then put in
left-greedy normal form by sliding, between neighbours A B, each s in
the left descent set of B that is not in the right descent set of A
over to A (Elrifai-Morton; Charney 1992).  The word is the identity
exactly when that normal form is k copies of w0.
"""

from __future__ import annotations

import math


class FiniteCoxeterGroup:
    """W of a Coxeter graph of finite type, given by vertex names and
    (u, v, m) edges with integer labels m >= 3."""

    def __init__(self, vertices, edges, max_roots=1000):
        self.vertices = tuple(vertices)
        n = len(self.vertices)
        at = {v: k for k, v in enumerate(self.vertices)}
        gram = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        for u, v, m in edges:
            gram[at[u]][at[v]] = gram[at[v]][at[u]] = -math.cos(math.pi / m)

        def reflect(i, root):
            c = 2 * sum(g * x for g, x in zip(gram[i], root))
            return tuple(x - c if k == i else x for k, x in enumerate(root))

        def key(root):
            return tuple(round(x, 9) + 0.0 for x in root)

        simple = [tuple(float(i == k) for k in range(n)) for i in range(n)]
        roots = list(simple) + [tuple(-x for x in r) for r in simple]
        index = {key(r): k for k, r in enumerate(roots)}
        k = 0
        while k < len(roots):
            for i in range(n):
                image = reflect(i, roots[k])
                if key(image) not in index:
                    index[key(image)] = len(roots)
                    roots.append(image)
            if len(roots) > max_roots:
                raise ValueError("the root set is not finite")
            k += 1
        self.roots = roots
        self.negative = frozenset(
            k for k, r in enumerate(roots) if sum(r) < 0
        )
        self.identity = tuple(range(len(roots)))
        self.generators = {
            v: tuple(index[key(reflect(i, r))] for r in roots)
            for i, v in enumerate(self.vertices)
        }
        # the longest element: the one with every simple reflection as a
        # right descent, reached by adding ascents one at a time
        w = self.identity
        while ascent := set(self.vertices) - self.right_descents(w):
            w = self.mul(w, self.generators[min(ascent)])
        self.w0 = w

    def mul(self, x, y):
        """x y, acting on roots as x after y."""
        return tuple(x[k] for k in y)

    def inverse(self, x):
        out = [0] * len(x)
        for k, image in enumerate(x):
            out[image] = k
        return tuple(out)

    def length(self, x):
        """The number of positive roots that x makes negative."""
        return sum(
            1 for k in range(len(x)) if k not in self.negative and x[k] in self.negative
        )

    def right_descents(self, x):
        """The s with l(x s) < l(x), that is x(a_s) < 0."""
        return {v for i, v in enumerate(self.vertices) if x[i] in self.negative}

    def left_descents(self, x):
        return self.right_descents(self.inverse(x))

    def element(self, word):
        """The image in W of a word of generator names."""
        w = self.identity
        for v in word:
            w = self.mul(w, self.generators[v])
        return w

    def normal_form(self, factors):
        """Left-greedy normal form of a product of simple elements, with
        identity factors dropped."""
        factors = list(factors)
        moved = True
        while moved:
            moved = False
            for k in range(len(factors) - 1):
                a, b = factors[k], factors[k + 1]
                while slide := self.left_descents(b) - self.right_descents(a):
                    s = self.generators[min(slide)]
                    a, b = self.mul(a, s), self.mul(s, b)
                    moved = True
                factors[k], factors[k + 1] = a, b
            factors = [f for f in factors if f != self.identity]
        return factors

    def is_identity(self, word):
        """Whether a word of (name, +-1) letters is trivial in the Artin
        group."""
        w0 = self.w0
        k, positive = 0, []
        for v, exp in word:
            s = self.generators[v]
            if exp == 1:
                positive.append(s)
            else:
                positive = [self.mul(self.mul(w0, x), w0) for x in positive]
                positive.append(self.mul(w0, s))
                k += 1
        return self.normal_form(positive) == [w0] * k
