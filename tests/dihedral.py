"""The dihedral group of the quadrilateral acting on frame coordinates,
shared by the symmetry proof and the certifier's coverage tests.

The group is generated by the rotation (p1,p2,p3,p4,w) -> (p2,p3,p4,p1,pi-w)
and the reflection (p1,p2,p3,p4,w) -> (p1,p4,p3,p2,pi-w).
"""

import numpy as np

ROTATION = (1, 2, 3, 0)
REFLECTION = (0, 3, 2, 1)


def act(order, p, w):
    """Apply the generator that reorders p by `order` and sends w to pi-w."""
    return np.asarray(p)[..., list(order)], np.pi - np.asarray(w)


def into_cut(p, w):
    """Carry frames (shape (n, 4) and (n,)) into the cut
    {p1 >= p2, p1 >= p3, p1 >= p4, p2 >= p4}: rotate the largest p_i to p1,
    then reflect if p2 < p4."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    k = np.argmax(p, axis=1)
    # k rotations bring p_(k+1) to the front and flip w k times
    p = np.take_along_axis(p, (k[:, None] + np.arange(4)) % 4, axis=1)
    w = np.where(k % 2 == 1, np.pi - w, w)
    flip = p[:, 1] < p[:, 3]
    p[flip] = p[flip][:, list(REFLECTION)]
    w = np.where(flip, np.pi - w, w)
    return p, w


def in_cut(p):
    """Mask of frames (shape (n, 4)) in the cut."""
    p = np.asarray(p)
    return ((p[:, 0] >= p[:, 1]) & (p[:, 0] >= p[:, 2]) & (p[:, 0] >= p[:, 3])
            & (p[:, 1] >= p[:, 3]))
