"""Independent reference model for checking the program's written output.

A small numpy evaluator of the FSS ladder written from the formulas in the
README and PAPER.md; it imports nothing from fsskit.  Two-ports are held as
(n, 2, 2) complex stacks and cascaded with np.matmul, a different layout
from the program's a/b/c/d fields, so a shared bug is unlikely.

    ring sheet   shunt Y = 1 / (R1 + jwL1 + 1/(jwC1))
    wire grid    shunt Y = 1 / (R + jwL)
    slab         q = sqrt(eps_r - sin^2 theta), phase phi = (w/c0) q length,
                 Z = eta/q (TE) or eta q/eps_r (TM), gamma*l = phi (tan_d/2 + j)
    ports        eta0/cos(theta) (TE) or eta0 cos(theta) (TM)
    S            Delta = A + B/z + Cz + D, s21 = 2/Delta,
                 s11 = (A + B/z - Cz - D)/Delta
    width laws   L(w) = K_L ln(1/sin(pi w / 2D)), R(w) = K_R / w
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ETA0 = 376.730
C0 = 299_792_458.0

#: Width-law anchors quoted in the README: L(2.6 mm) = 2.85 nH and
#: R(2.6 mm) = 0.1 ohm on the 10.2 mm cell.
PERIOD = 10.2e-3
K_L = 2.85e-9 / math.log(1.0 / math.sin(math.pi * 2.6e-3 / (2.0 * PERIOD)))
K_R = 0.1 * 2.6e-3


@dataclass(frozen=True)
class Ladder:
    """Element values of one layer, SI units; order 2 adds a mirrored copy."""

    L: float
    L1: float
    C1: float
    R: float
    R1: float
    h: float
    eps_r: float
    loss_tangent: float
    order: int = 1
    h1: float = 0.0


def ladder_at_width(w: float, l1: float, c1: float) -> Ladder:
    """First-order layer of the reference cell with grid strip width w."""
    return Ladder(
        L=K_L * math.log(1.0 / math.sin(math.pi * w / (2.0 * PERIOD))),
        L1=l1, C1=c1, R=K_R / w, R1=0.1, h=0.254e-3, eps_r=2.2, loss_tangent=0.0009,
    )


def _shunt(y: np.ndarray) -> np.ndarray:
    m = np.zeros(y.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = 1.0
    m[..., 1, 0] = y
    m[..., 1, 1] = 1.0
    return m


def _slab(f, eps_r, length, loss_tangent, theta, tm):
    s2 = math.sin(theta) ** 2
    q = math.sqrt(eps_r - s2)
    z = ETA0 * q / eps_r if tm and s2 > 0.0 else ETA0 / q
    gl = (2.0 * math.pi * f / C0) * q * length * (0.5 * loss_tangent + 1j)
    m = np.empty(f.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = np.cosh(gl)
    m[..., 0, 1] = z * np.sinh(gl)
    m[..., 1, 0] = np.sinh(gl) / z
    return m


def s_params(p: Ladder, f: np.ndarray, theta: float = 0.0, tm: bool = False):
    """Return (s11, s21) of the ladder on frequencies f (Hz)."""
    f = np.asarray(f, dtype=float)
    w = 2.0 * math.pi * f
    ring = _shunt(1.0 / (p.R1 + 1j * w * p.L1 + 1.0 / (1j * w * p.C1)))
    grid = _shunt(1.0 / (p.R + 1j * w * p.L))
    spacer = _slab(f, p.eps_r, p.h, p.loss_tangent, theta, tm)
    layer = ring @ spacer @ grid
    if p.order == 2:
        gap = _slab(f, 1.0, p.h1, 0.0, theta, tm)
        layer = layer @ gap @ grid @ spacer @ ring
    z = ETA0 * math.cos(theta) if tm else ETA0 / math.cos(theta)
    a, b = layer[..., 0, 0], layer[..., 0, 1]
    c, d = layer[..., 1, 0], layer[..., 1, 1]
    delta = a + b / z + c * z + d
    return (a + b / z - c * z - d) / delta, 2.0 / delta


def read_s2p_ri_ghz(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse an RI/GHz .s2p written by the program: (freqs_hz, s11, s21)."""
    with open(path, encoding="utf-8") as fh:
        option = next(line for line in fh if line.startswith("#")).lower().split()
    if option[1:4] != ["ghz", "s", "ri"]:
        raise ValueError(f"{path}: expected a GHz S RI option line, got {option}")
    data = np.loadtxt(path, comments=("!", "#"))
    return data[:, 0] * 1e9, data[:, 1] + 1j * data[:, 2], data[:, 3] + 1j * data[:, 4]


def write_s2p_db_mhz(path, f: np.ndarray, s11: np.ndarray, s21: np.ndarray) -> None:
    """Write a measured-style two-port file: MHz, dB/angle, 12 significant digits."""
    lines = ["! measured-style reference curve", "# MHz S DB R 376.73"]
    for fi, a, b in zip(f, s11, s21):
        cells = [fi / 1e6]
        for v in (a, b, b, a):
            cells += [20.0 * math.log10(abs(v)), math.degrees(math.atan2(v.imag, v.real))]
        lines.append(" ".join(f"{x:.12g}" for x in cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def max_rel_error(path, p: Ladder, theta: float = 0.0, tm: bool = False) -> float:
    """Largest relative |s11| or |s21| difference between a file and the model."""
    f, s11, s21 = read_s2p_ri_ghz(path)
    r11, r21 = s_params(p, f, theta, tm)
    return float(max(
        np.max(np.abs(np.abs(s11) - np.abs(r11)) / np.abs(r11)),
        np.max(np.abs(np.abs(s21) - np.abs(r21)) / np.abs(r21)),
    ))
