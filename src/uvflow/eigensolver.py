"""Grid and shooting oracles for low-lying levels of H = kappa p^2 + V(x).

Two deliberately independent routes:

* ``ground_state`` / ``eigenvalue_by_index``   second-order finite
  differences on a symmetric Dirichlet grid, solved as a symmetric
  tridiagonal eigenproblem with Richardson extrapolation from the
  (n, 2n-1) grid pair;
* ``shooting_ground_energy``                   renormalized Numerov
  integration: the interior node count isolates the lowest level, then
  Brent's method converges on the mismatch between an outward and an
  inward sweep.

A grid level is found in a narrow energy window seeded by the same level
on the next-coarser grid ((n + 1)/2 points, made odd), recursively down to
a base grid of at most 1025 points, where LAPACK bisects for the level by
index.  Exact Sturm counts widen the window until it holds level k and say
which of its eigenvalues that is, so the seed sets the cost, never the
answer; LAPACK then bisects the window and inverse iteration gives the
vector.  Index bisection starts from the Gershgorin interval, which the
Morse wall at x = -30 stretches to 1e27: on a 2-core Xeon one 31,999-row
Morse solve takes about 50 ms that way and about 10 ms in a window.  The
Richardson coarse companion is the first rung of the ladder, and the fine
2n - 1 solve is seeded by the raw level; both are solved without
eigenvectors.

Every tridiagonal solve passes an explicit absolute tolerance to LAPACK.
The default (norm-relative) tolerance is useless for potentials with
enormous walls, e.g. the exponential wall of a Morse well sampled at
x = -30 dwarfs a ground level of order one and costs eight digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, get_lapack_funcs
from scipy.optimize import brentq

from .errors import (DomainError, DomainTooSmallError, IterationLimitError,
                     SingularPointError)
from .potentials import PotentialSpec

_BOUNDARY_LEAK = 1.0e-10
_EIG_TOL = 1.0e-13
_BASE_N = 1025           # grids this small are solved by index, unseeded
_WINDOW = 1.0e-4         # first half-width of a seeded window, times max(1, |seed|)
_WINDOW_GROWTH = 8.0


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class Grid:
    """n points spanning [-half_width, half_width], Dirichlet at the ends.

    ``n`` must be odd so x = 0 is a node; spacing is 2 half_width/(n-1).
    Use n = 1 (mod 4) when the convergence-ratio diagnostic matters, so the
    coarse companion grid is odd as well.
    """

    half_width: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.half_width < math.inf:
            raise DomainError("grid half_width must be positive and finite")
        if self.n < 3 or self.n % 2 == 0:
            raise DomainError("grid size must be odd and at least 3")
        if not 0.0 < self.spacing * self.spacing < math.inf:
            raise DomainError(f"grid spacing {self.spacing!r} squares to 0 or inf")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n)


@dataclass(frozen=True)
class OracleResult:
    eigenvalue: float            # raw value on the requested grid
    eigenfunction: np.ndarray    # sampled on the full grid, zeros at the walls
    parity: Optional[Parity]
    refinement_estimate: float   # Richardson value from grids (n, 2n-1)
    convergence_ratio: float     # coarse/fine error ratio, ~4 in the h^2 regime
    x: np.ndarray


def _potential_on(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    return np.asarray(spec(x), dtype=float)


def _coarser(grid: Grid) -> Grid:
    """The next-coarser grid: (n + 1)/2 points, made odd."""
    nc = (grid.n + 1) // 2
    if nc % 2 == 0:
        nc += 1
    return Grid(grid.half_width, nc)


def _sector_matrix(spec: PotentialSpec, grid: Grid,
                   parity: Optional[Parity]) -> Tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the parity-sector Hamiltonian."""
    t = spec.kappa / grid.spacing ** 2
    inner = grid.nodes[1:-1]
    # the sectors split at the center index: linspace can leave the center
    # node at +-2e-15 rather than 0, so a sign test would misplace it
    center = (grid.n - 3) // 2
    if parity is None:
        xs = inner
    elif parity is Parity.ODD:
        # Dirichlet at 0: the positive-side block is already the odd sector
        xs = inner[center + 1:]
    else:
        # even sector: center node with a sqrt(2)-symmetrized first coupling
        xs = inner[center:]
    d = 2.0 * t + _potential_on(spec, xs)
    e = np.full(len(xs) - 1, -t)
    if parity is Parity.EVEN:
        e[0] = -math.sqrt(2.0) * t
    return d, e


def _sturm_window(d: np.ndarray, e: np.ndarray, k: int,
                  seed: float) -> Tuple[float, float, int, int]:
    """(lo, hi, N(lo), N(hi)) with N(lo) <= k < N(hi), for level k near ``seed``.

    N(x) is the exact Sturm count, the number of eigenvalues at or below
    x, so the window holds level k whatever the seed; the seed only places
    it.  The window [seed - w, seed + w] widens geometrically, one edge at a
    time, until the counts straddle k; a window that then holds more levels
    than k (a seed far off) is halved by counts until it holds only k, or
    until its ends are adjacent floats around a cluster, so that a midpoint
    would round onto an end.  A count is LAPACK dstebz over
    (floor, x] with an infinite tolerance: two Sturm sweeps at the ends and
    one midpoint sweep, no bisection; 'B' ordering skips its sort.
    """
    stebz, = get_lapack_funcs(("stebz",), (d, e))
    # below the Gershgorin interval, so N(floor) = 0
    floor = float(np.min(d)) - 2.0 * float(np.max(np.abs(e), initial=0.0)) - 1.0

    def count(x: float) -> int:
        if x <= floor:
            return 0
        m, _, _, _, info = stebz(d, e, 1, floor, x, 1, 1, math.inf, "B")
        if info != 0:
            raise IterationLimitError(f"Sturm count failed (dstebz info {info})")
        return int(m)

    w = _WINDOW * max(1.0, abs(seed))
    lo, hi = seed - w, seed + w
    n_lo, n_hi = count(lo), count(hi)
    while n_lo > k or n_hi <= k:
        w *= _WINDOW_GROWTH
        if n_lo > k:
            hi, n_hi = lo, n_lo
            lo = seed - w
            n_lo = count(lo)
        else:
            lo, n_lo = hi, n_hi
            hi = seed + w
            n_hi = count(hi)
    mid = 0.5 * (lo + hi)
    while n_hi - n_lo > 1 and lo < mid < hi:
        n_mid = count(mid)
        if n_mid > k:
            hi, n_hi = mid, n_mid
        else:
            lo, n_lo = mid, n_mid
        mid = 0.5 * (lo + hi)
    return lo, hi, n_lo, n_hi


def _coarse_level(spec: PotentialSpec, grid: Grid, k: int,
                  parity: Optional[Parity]) -> Optional[float]:
    """Level k on the next-coarser grid, the seed for ``grid``; that level
    is seeded the same way, so the ladder descends to _BASE_N points.

    None at or below _BASE_N points, and when the coarse odd sector, the
    smallest, holds fewer than k + 1 levels.
    """
    coarse = _coarser(grid)
    if grid.n <= _BASE_N or k >= (coarse.n - 3) // 2:
        return None
    seed = _coarse_level(spec, coarse, k, parity)
    return _solve_sector(spec, coarse, k, parity, seed, vector=False)[0]


def _solve_sector(spec: PotentialSpec, grid: Grid, k: int,
                  parity: Optional[Parity], seed: Optional[float] = None,
                  vector: bool = True) -> Tuple[float, Optional[np.ndarray]]:
    """Eigenvalue k in the parity sector and, with ``vector``, its
    eigenvector on the full grid.

    With a seed the level is found in a Sturm-count window around it;
    without one LAPACK bisects for index k over the whole Gershgorin
    interval.
    """
    d, e = _sector_matrix(spec, grid, parity)
    if k >= len(d):
        raise DomainError(f"level index {k} exceeds the sector size {len(d)}")
    if not np.all(np.isfinite(d)):
        raise DomainError("the potential is not finite on the grid")
    if seed is None:
        select, bounds, first, size = "i", (k, k), k, 1
    else:
        lo, hi, first, last = _sturm_window(d, e, k, seed)
        select, bounds, size = "v", (lo, hi), last - first
    try:
        found = eigh_tridiagonal(d, e, eigvals_only=not vector, select=select,
                                 select_range=bounds, tol=_EIG_TOL)
    except LinAlgError as exc:
        raise IterationLimitError(f"tridiagonal eigensolve failed: {exc}") from exc
    ws, vs = found if vector else (found, None)
    if len(ws) != size:
        raise IterationLimitError("the window solve disagrees with its Sturm counts")
    w = float(ws[k - first])
    if not vector:
        return w, None
    vec = vs[:, k - first]
    if parity is None:
        psi = np.concatenate([[0.0], vec, [0.0]])
    elif parity is Parity.ODD:
        psi = np.concatenate([[0.0], -vec[::-1], [0.0], vec, [0.0]])
    else:
        body = vec.copy()
        body[0] *= math.sqrt(2.0)
        psi = np.concatenate([[0.0], body[1:][::-1], [body[0]], body[1:], [0.0]])
    return w, psi


def _classify_parity(psi: np.ndarray) -> Optional[Parity]:
    scale = float(np.max(np.abs(psi)))
    if scale == 0.0:
        return None
    if np.max(np.abs(psi - psi[::-1])) < 1.0e-6 * scale:
        return Parity.EVEN
    if np.max(np.abs(psi + psi[::-1])) < 1.0e-6 * scale:
        return Parity.ODD
    return None


def eigenvalue_by_index(spec: PotentialSpec, grid: Grid, k: int,
                        parity: Optional[Parity] = None,
                        refine: bool = True) -> OracleResult:
    """Level k (within the parity sector if one is given), grid route."""
    if k < 0:
        raise DomainError("level index must be nonnegative")
    if parity is not Parity.ODD and spec.family.singular_at_origin:
        raise SingularPointError(
            f"the {spec.family.name} shape is singular at the center node; "
            "solve the odd sector")
    seed = _coarse_level(spec, grid, k, parity)
    raw, psi = _solve_sector(spec, grid, k, parity, seed=seed)
    peak = float(np.max(np.abs(psi)))
    if max(abs(psi[1]), abs(psi[-2])) > _BOUNDARY_LEAK * peak:
        raise DomainTooSmallError(
            "eigenfunction has not decayed at the box edge; enlarge half_width")
    psi = psi / math.sqrt(float(np.sum(psi ** 2)) * grid.spacing)
    if psi[np.argmax(np.abs(psi))] < 0.0:
        psi = -psi
    found_parity = parity if parity is not None else _classify_parity(psi)
    refined, ratio = raw, math.nan
    if refine:
        # a seed is the coarse companion, already solved
        e_c = seed if seed is not None else _solve_sector(
            spec, _coarser(grid), k, parity, vector=False)[0]
        e_f, _ = _solve_sector(spec, Grid(grid.half_width, 2 * grid.n - 1), k,
                               parity, seed=raw, vector=False)
        refined = (4.0 * e_f - raw) / 3.0
        denom = raw - e_f
        ratio = (e_c - raw) / denom if denom != 0.0 else math.nan
    return OracleResult(raw, psi, found_parity, refined, ratio, grid.nodes)


def ground_state(spec: PotentialSpec, grid: Grid,
                 parity: Optional[Parity] = None,
                 refine: bool = True) -> OracleResult:
    """Lowest level, full line by default or restricted to a parity sector.

    Parity sectors presume a symmetric potential; for asymmetric shapes
    (Morse) leave parity unset and classification reports None.
    """
    return eigenvalue_by_index(spec, grid, 0, parity=parity, refine=refine)


# -- Numerov shooting (independent of the matrix route) ----------------------
#
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
    for i in range(start, stop, step):
        if rho <= -1.0:
            sign = -sign
            if w[i - step] > -12.0 and w[i] > -12.0:
                nodes += 1
            if rho == -1.0:
                rho = _BELOW_ZERO
        rho = w[i] + rho / (1.0 + rho)
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
    if parity is None:
        x = np.linspace(-half_width, half_width, _SHOOT_N)
    else:
        x = np.linspace(0.0, half_width, _SHOOT_N)
    h = x[1] - x[0]
    v = np.empty_like(x)
    if parity is not None and spec.family.singular_at_origin:
        if parity is not Parity.ODD:
            raise SingularPointError(
                f"the {spec.family.name} shape is singular at x = 0; "
                "shoot in the odd sector")
        v[1:] = _potential_on(spec, x[1:])
        v[0] = 0.0  # multiplies the exact node psi(0) = 0
    else:
        v[:] = _potential_on(spec, x)

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
    try:
        return brentq(
            lambda energy: _numerov_mismatch(_numerov_w(spec, energy, v, h),
                                             parity, m),
            lo, hi, xtol=_SHOOT_TOL * max(1.0, abs(lo), abs(hi)))
    except RuntimeError as exc:
        raise IterationLimitError(f"Brent search did not converge: {exc}") from exc
