"""Numerov shooting oracle for the ground level of H = kappa p^2 + V(x).

``shooting_ground_energy`` integrates by renormalized Numerov: the
interior node count isolates the lowest level, then Brent's method
converges on the mismatch between an outward and an inward sweep.  It
shares no code with the grid oracle of ``eigensolver`` and needs numpy
alone: Brent's method is a port of scipy's ``brentq``, so that importing
this module loads no scipy.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, IterationLimitError, SingularPointError
from .potentials import Parity, PotentialSpec

# Renormalized Numerov (B. R. Johnson, J. Chem. Phys. 67, 4086 (1977)): with
# c_i = 1 + (h^2/12) k^2_i and f_i = c_i psi_i the Numerov step reads
# f_{i+1} - 2 f_i + f_{i-1} = w_i f_i, w_i = -h^2 k^2_i / c_i.  Only the
# ratio f_{i+1}/f_i = 1 + rho_i is carried, through
# rho_i = w_i + rho_{i-1} / (1 + rho_{i-1}), so nothing can overflow, and
# carrying the excess rho rather than the ratio (which sits near 1 on a fine
# mesh) keeps the O(h^2) information to full relative precision.  Where
# c_i < 0 (w_i < -12: a wall deeply forbidden on this mesh) the recurrence
# alternates sign spuriously, so node counts skip those points.

# rho standing in for an exact zero of f (rho = -1), keeping 1/(1 + rho) finite
_BELOW_ZERO = -1.0 - 2.0 ** -52
_SHOOT_N = 20001         # mesh points of a shooting sweep
_SHOOT_TOL = 1.0e-12     # relative energy tolerance of a shooting solve
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENT_ITER = 100


def _numerov_w(spec: PotentialSpec, energy: float, v: np.ndarray,
               h: float) -> memoryview:
    """w_i on the mesh; indexing the view yields Python floats, no copy."""
    h2k2 = (h * h / spec.kappa) * (energy - v)
    return memoryview(-h2k2 / (1.0 + h2k2 / 12.0))


def _outward_start(w: memoryview,
                   parity: Optional[Parity]) -> Tuple[float, int]:
    """(rho_{i-1}, i) where the outward sweep begins.

    The even start psi_{-1} = psi_1 gives f_1/f_0 = 1 + w_0/2; the odd
    sector and the full-line sweep start on a node, f_0 = 0, so
    f_2/f_1 = 2 + w_1.
    """
    if parity is Parity.EVEN:
        return 0.5 * w[0], 1
    return 1.0 + w[1], 2


def _ratio_sweep(w: memoryview, rho: float, start: int, stop: int,
                 step: int) -> Tuple[float, int, int]:
    """Carry rho_i = f_{i+step}/f_i - 1 over i in range(start, stop, step).

    On entry ``rho`` is f_start/f_{start-step} - 1.  Returns the final
    f_stop/f_{stop-step} - 1, the sign of f_{stop-step} relative to
    f_{start-step}, and the number of sign changes between neighbours
    that both have c > 0.
    """
    sign, nodes = 1, 0
    # iterating a slice of the view copies nothing and does no index
    # arithmetic per point, about a third faster than w[i] and w[i - step];
    # start and stop are non-negative, so the slice spans the range's points
    w_prev = w[start - step]
    for w_i in w[start:stop:step]:
        if rho <= -1.0:
            sign = -sign
            if w_prev > -12.0 and w_i > -12.0:
                nodes += 1
            if rho == -1.0:
                rho = _BELOW_ZERO
        rho = w_i + rho / (1.0 + rho)
        w_prev = w_i
    return rho, sign, nodes


def _numerov_nodes(w: memoryview, parity: Optional[Parity]) -> int:
    """Interior node count of the solution swept outward over the whole mesh.

    By Sturm oscillation the count equals the number of sector levels
    below the energy, so the lowest level is where it steps from 0 to 1
    (a node entering through the far Dirichlet wall).
    """
    rho, start = _outward_start(w, parity)
    return _ratio_sweep(w, rho, start, len(w), 1)[2]


def _numerov_mismatch(w: memoryview, parity: Optional[Parity],
                      m: int) -> float:
    """Sine of the angle between the outward and inward (f_m, f_{m+1}).

    The outward solution starts at the first mesh point, the inward one at
    the far Dirichlet wall.  Carrying the signs keeps both vectors, and so
    the sine, continuous in the energy; it vanishes exactly where the two
    solutions are proportional, i.e. at the discrete Numerov eigenvalues.
    """
    rho, start = _outward_start(w, parity)
    rho, s_out, _ = _ratio_sweep(w, rho, start, m + 1, 1)
    sigma, s_in, _ = _ratio_sweep(w, 1.0 + w[-2], len(w) - 3, m, -1)
    # outward s_out (1, 1 + rho) against inward s_in (1 + sigma, 1)
    return (-s_out * s_in * (rho + sigma + rho * sigma)
            / math.hypot(1.0, 1.0 + rho) / math.hypot(1.0, 1.0 + sigma))


def _brentq(f: Callable[[float], float], xa: float, xb: float,
            xtol: float) -> float:
    """Root of f in [xa, xb] by Brent's method (R. P. Brent, Algorithms for
    Minimization without Derivatives (1973), ch. 4), line for line as
    scipy's C ``brentq``.

    Stops when the bracket is below xtol + _BRENT_RTOL |x|; a bracket
    without a sign change, a NaN value or _BRENT_ITER iterations without
    convergence raise IterationLimitError.
    """
    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise IterationLimitError(f"Brent search met a NaN at {x!r}")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise IterationLimitError(
            f"Brent search needs a sign change over [{xa!r}, {xb!r}]")
    for _ in range(_BRENT_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis       # bisect
        else:
            spre = scur = sbis           # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise IterationLimitError(
        f"Brent search did not converge in {_BRENT_ITER} iterations")


def shooting_ground_energy(spec: PotentialSpec, half_width: float,
                           parity: Optional[Parity] = None) -> float:
    """Ground level by renormalized Numerov shooting on _SHOOT_N points.

    With a parity the sweep runs over [0, half_width] from a symmetric or
    antisymmetric start; without one it runs across the full box from the
    left wall.  No level of the sector lies below min(V), so the node
    count there is zero, and the bracket grows from there until a node
    appears.  A growth step can hop over several levels, so the bracket is
    then halved by node count until exactly one level lies inside it.
    Brent's method then converges, to _SHOOT_TOL relative, on the mismatch
    between the outward sweep and an inward sweep from the far wall,
    matched at the outer classical turning point of the bracket's top
    energy, so the inward solution has no node anywhere in the bracket.
    """
    if not 0.0 < half_width < math.inf:
        raise DomainError("shooting needs a positive, finite box")
    if parity is not Parity.ODD and spec.family.singular_at_origin:
        raise SingularPointError(
            f"the {spec.family.name} shape is singular at x = 0; "
            "shoot in the odd sector")
    if parity is None:
        x = np.linspace(-half_width, half_width, _SHOOT_N)
    else:
        x = np.linspace(0.0, half_width, _SHOOT_N)
    h = x[1] - x[0]
    # the odd sweep of a singular shape starts at x = 0, where V = 0
    # multiplies the exact node psi(0) = 0; the assignment casts and
    # broadcasts whatever the shape returns
    v = np.zeros_like(x)
    start = int(spec.family.singular_at_origin)
    v[start:] = spec(x[start:])

    def nodes(energy: float) -> int:
        return _numerov_nodes(_numerov_w(spec, energy, v, h), parity)

    lo = float(np.min(v)) + 1.0e-12
    step = 0.5 * max(1.0, abs(lo))
    hi = lo + step
    for _ in range(80):
        k_hi = nodes(hi)
        if k_hi >= 1:
            break
        step *= 1.4
        lo = hi
        hi += step
    else:
        raise IterationLimitError("no node appeared while growing the bracket")
    while k_hi > 1:
        mid = 0.5 * (lo + hi)
        if hi - lo <= _SHOOT_TOL * max(1.0, abs(mid)):
            return mid  # the two lowest levels are closer than _SHOOT_TOL
        k_mid = nodes(mid)
        if k_mid >= 1:
            hi, k_hi = mid, k_mid
        else:
            lo = mid
    m = min(max(int(np.flatnonzero(v <= hi)[-1]), 1), _SHOOT_N - 3)
    return _brentq(
        lambda energy: _numerov_mismatch(_numerov_w(spec, energy, v, h),
                                         parity, m),
        lo, hi, _SHOOT_TOL * max(1.0, abs(lo), abs(hi)))
