"""Exact proof that the residual is invariant under the dihedral group of
the quadrilateral, which the certifier's cut of the domain rests on.

In frame coordinates the vertices are z1 = (p1, 0), z2 = p2 (cos w, sin w),
z3 = (-p3, 0) and z4 = -p4 (cos w, sin w).  Each generator of the group
sends w to pi - w, so cos w to -cos w and sin w to itself.  The tests show
with sympy that each generator permutes the squared lengths and the four
areas, and that the residual, a polynomial in free length and area
symbols, is invariant under the induced permutation.  Lengths are the
positive roots of the squared lengths, so they are permuted the same way.
"""

import numpy as np
import pytest

from dihedral import REFLECTION, ROTATION, act, in_cut, into_cut
from quadineq.geometry import QuadMetrics, metrics_from_frames, sample_frames
from quadineq.kernel import edge_terms, residual

sp = pytest.importorskip("sympy")

P = sp.symbols("p1:5", positive=True)
COS, SIN = sp.symbols("cosw sinw")

LENGTHS = ("a", "b", "c", "d", "e", "f")
AREAS = ("A123", "A124", "A134", "A234")
SYMBOLS = {name: sp.Symbol(name, positive=True) for name in LENGTHS + AREAS}


def _on_circle(expr):
    """Expand, using sin^2 w = 1 - cos^2 w."""
    return sp.expand(sp.expand(expr).subs(SIN ** 2, 1 - COS ** 2))


def _frame_quantities():
    """Squared lengths and areas as polynomials in p1..p4, cos w, sin w."""
    p1, p2, p3, p4 = P
    z = ((p1, 0), (p2 * COS, p2 * SIN), (-p3, 0), (-p4 * COS, -p4 * SIN))

    def sq(i, j):
        return _on_circle((z[i][0] - z[j][0]) ** 2 + (z[i][1] - z[j][1]) ** 2)

    def area(i, j, k):
        return sp.expand(((z[j][0] - z[i][0]) * (z[k][1] - z[i][1])
                          - (z[j][1] - z[i][1]) * (z[k][0] - z[i][0])) / 2)

    out = {"c": sq(0, 1), "a": sq(1, 2), "f": sq(2, 3), "d": sq(3, 0),
           "b": sq(0, 2), "e": sq(1, 3)}
    out.update(A123=area(0, 1, 2), A124=area(0, 1, 3), A134=area(0, 2, 3),
               A234=area(1, 2, 3))
    return out


# x -> y: the quantity x of the image frame equals the quantity y of the frame
INDUCED = {
    ROTATION: {"a": "f", "b": "e", "c": "a", "d": "c", "e": "b", "f": "d",
               "A123": "A234", "A234": "A134", "A134": "A124", "A124": "A123"},
    REFLECTION: {"a": "f", "b": "b", "c": "d", "d": "c", "e": "e", "f": "a",
                 "A123": "A134", "A124": "A124", "A134": "A123", "A234": "A234"},
}
GENERATORS = pytest.mark.parametrize("order", [ROTATION, REFLECTION],
                                     ids=["rotation", "reflection"])


def _substitution(order):
    """The generator as a substitution of p1..p4, cos w and sin w."""
    mapping = {P[i]: P[j] for i, j in enumerate(order)}
    mapping.update({COS: -COS, SIN: SIN})
    return mapping


@GENERATORS
def test_each_generator_permutes_squared_lengths_and_areas(order):
    quantities = _frame_quantities()
    induced = INDUCED[order]
    assert sorted(induced.values()) == sorted(induced)  # a permutation
    for name, image in induced.items():
        moved = quantities[name].xreplace(_substitution(order))
        assert _on_circle(moved - quantities[image]) == 0, name


@GENERATORS
def test_residual_polynomial_is_invariant_under_each_generator(order):
    # the residual as the kernel writes it, over free length and area symbols
    fields = {name: None for name in QuadMetrics.__dataclass_fields__}
    fields.update(SYMBOLS)
    terms = edge_terms(QuadMetrics(**fields))
    poly = sp.expand(terms.lhs - terms.rhs)
    permuted = poly.xreplace({SYMBOLS[x]: SYMBOLS[y]
                              for x, y in INDUCED[order].items()})
    assert sp.expand(permuted - poly) == 0


def test_generators_span_the_dihedral_group_of_order_eight():
    def compose(f, g):  # f after g, on (order, w flips)
        return (tuple(g[0][i] for i in f[0]), (f[1] + g[1]) % 2)

    elements = {((0, 1, 2, 3), 0)}
    while True:
        grown = elements | {compose(gen, x) for x in elements
                            for gen in ((ROTATION, 1), (REFLECTION, 1))}
        if grown == elements:
            break
        elements = grown
    assert len(elements) == 8


def _residual(p, w):
    return residual(metrics_from_frames(p, w), "edge")


@GENERATORS
def test_generators_keep_the_residual_on_samples(order):
    p, w = sample_frames(11, 500, 0.05)
    moved_p, moved_w = act(order, p, w)
    np.testing.assert_allclose(_residual(moved_p, moved_w), _residual(p, w),
                               rtol=1e-9, atol=1e-15)


def test_cut_is_a_fundamental_domain():
    p, w = sample_frames(12, 2000, 0.01)
    cut_p, cut_w = into_cut(p, w)
    assert np.all(in_cut(cut_p))
    # the margin domain maps to itself
    assert np.array_equal(np.sort(cut_p, axis=1), np.sort(p, axis=1))
    assert np.all((cut_w >= 0.01 * np.pi) & (cut_w <= 0.99 * np.pi))
    np.testing.assert_allclose(_residual(cut_p, cut_w), _residual(p, w),
                               rtol=1e-9, atol=1e-15)
    # about one frame in eight already lies in the cut
    assert 0.09 < np.mean(in_cut(p)) < 0.16
