"""Closed-form geodesic circles of the Veronese planes over R, C and H: the
oracle that the embedding and geodesic-integrator tests are held against.

For a Hermitian-orthonormal pair v, w the points of cos t v + sin t w form
the unit-speed circle t -> c + cos(2t) a + sin(2t) b of radius 1/2 and
period pi, through the points of v, (v + w)/sqrt(2) and w at t = 0, pi/4
and pi/2.  Octonionic geodesics have no such oracle here.
"""

import numpy as np

from normcurve.veronese import SQRT2, point_from_homogeneous, random_homogeneous


def orthonormal_pair(spc, rng):
    """A random unit v and a unit w Hermitian-orthogonal to it."""
    alg = spc.algebra
    v = random_homogeneous(spc, rng)
    w = alg.random(rng, (spc.m,))
    inner = np.einsum("pqk,ip,iq->k", alg.table, v * alg.conj_signs, w)
    w = w - np.einsum("pqk,ip,q->ik", alg.table, v, inner)
    return v, w / np.linalg.norm(w)


def closed_form_circle(spc, v, w):
    """Point and velocity maps, over scalars or arrays of t, of the circle
    through the points of an orthonormal pair v, w."""
    x_v, x_w, x_s = (point_from_homogeneous(spc, x) for x in (v, w, (v + w) / SQRT2))
    center, a = (x_v + x_w) / 2.0, (x_v - x_w) / 2.0
    b = x_s - center

    def point(t):
        phase = 2.0 * np.asarray(t, dtype=float)[..., None]
        return center + np.cos(phase) * a + np.sin(phase) * b

    def velocity(t):
        phase = 2.0 * np.asarray(t, dtype=float)[..., None]
        return 2.0 * (np.cos(phase) * b - np.sin(phase) * a)

    return point, velocity
