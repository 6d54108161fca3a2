"""The bit reference of the ladder-evaluation suites: a ladder's S from its
leaf kernels, composed here and not through the HeldWork that every ladder is
evaluated through.

Each element's chain matrix comes from the public leaf kernels: a line's from
tline_matrix of its tline_phase, a shunt branch's from abcd_shunt of
shunt_series_rlc_admittance or shunt_rl_admittance.  The elements are joined
by the general eight-product chain multiply and converted with abcd_to_s's
three sums written out in full.  The formulas stay the program's own, so the
star-product oracle of test_star_oracle.py checks their physics.
"""

import functools

import numpy as np

from fsskit.builder import LineSegment
from fsskit.errors import SingularNetworkError
from fsskit.twoport import (
    TwoPortMatrix,
    abcd_shunt,
    shunt_rl_admittance,
    shunt_series_rlc_admittance,
    tline_matrix,
    tline_phase,
    wave_impedance,
)


def leaf_matrix(el, f, inc):
    """An element's chain matrix from the public leaf kernels, not through HeldWork."""
    if isinstance(el, LineSegment):
        phase = tline_phase(el.eps_r, el.length, f, inc.theta, el.loss_tangent)
        return tline_matrix(phase, el.eps_r, inc.polarization)
    r, l, c = el.resistance, el.inductance, el.capacitance
    return abcd_shunt(shunt_rl_admittance(r, l, f) if c is None else shunt_series_rlc_admittance(r, l, c, f))


def general_product(m, n):
    return TwoPortMatrix(a=m.a * n.a + m.b * n.c, b=m.a * n.b + m.b * n.d,
                         c=m.c * n.a + m.d * n.c, d=m.c * n.b + m.d * n.d)


def leaf_s(net, f, inc):
    """The ladder's (s11, s21, s22) from its leaf_matrix elements, the general chain
    product and abcd_to_s's formulas written out, with its error at Delta = 0."""
    z = wave_impedance(inc.theta, inc.polarization)
    m = functools.reduce(general_product, [leaf_matrix(el, f, inc) for el in net.elements])
    delta = m.a + m.b / z + m.c * z + m.d
    if np.any(delta == 0):
        raise SingularNetworkError("singular network: a + b/z + c z + d = 0")
    return (m.a + m.b / z - m.c * z - m.d) / delta, 2.0 / delta, (-m.a + m.b / z - m.c * z + m.d) / delta
