"""Grid oracle for low-lying levels of H = kappa p^2 + V(x).

``ground_state`` and ``eigenvalue_by_index`` take second-order finite
differences on a symmetric Dirichlet grid, solved as a symmetric
tridiagonal eigenproblem with Richardson extrapolation from the
(n, 2n-1) grid pair.  The Numerov shooting oracle, in ``shooting``,
shares no code with this one; only this one needs scipy, and of scipy
only the LAPACK extension ``scipy.linalg._flapack`` (see ``_load_flapack``).

Every grid level is found by one routine, ``_level``, on a fixed ladder
of grids solved coarsest first: the base, the requested grid halved
((n + 1)/2 points, made odd, at each halving) to at most 1025 points
while the coarser odd sector still holds the level; with Richardson
refinement the coarse companion, the grid halved once; the requested
grid; and with refinement the fine 2n - 1 grid.  No other halving is
solved.  ``_level`` has two routes.  Each grid above the base size is
seeded from the rungs below it: the first at the base's level, every
later one at the h^2 (Richardson) extrapolation through the two rungs
below it.  It takes the window route: exact Sturm counts say whether the
window seed +- 0.5% (of max(1, |seed|)) holds level k alone, one count at
its high end for a ground state, whose window reaches down to the
Gershgorin floor, one at each end otherwise.  The level is then found by
Rayleigh-quotient iteration from the seed, each step a LAPACK dgtsv
solve, and stands if its value, give or take its residual, lies in the
window.  Every other case takes the bracket route: the base, a grid with
no coarser rung, a window that misses level k or also holds a neighbour,
and a level that does not stand.  Sturm counts bracket level k, starting
from what the window's counts already say: up from the floor, or from a
window below the level, by doubling steps, then halving.  Level k is
bisected inside that bracket and refined in the same way.  So a seed
never changes which level is found; a level with a neighbour within 0.5%
of it takes the bracket route on every rung, inside its window.  The
quotient is t sum (u_{i+1} - u_i)^2 + sum V_i u_i^2 for a unit vector u,
t = kappa/h^2: it never forms the stored diagonal fl(2t + V), whose
rounding of V moves the levels of a 32,001-row matrix by up to 1.4e-10
relative.  The last solve starts from the vector and the quotient
rounded (to four decimals and ten significant digits), so that neither a
level nor any printed digit depends on the route or seed that found it.
The counts step up from the floor, not across the Gershgorin interval,
which the Morse wall at x = -30 stretches to 1e27, about 130 halvings
wide: on a 2-core Xeon one 31,999-row Morse ground level takes about
15 ms by its bracket and about 5 ms in its seeded window.

The bracket bisection passes an explicit absolute tolerance to LAPACK.  The
default (norm-relative) tolerance is useless for potentials with
enormous walls, e.g. the exponential wall of a Morse well sampled at
x = -30 dwarfs a ground level of order one and costs eight digits.

A refined level whose Richardson correction exceeds 5% of max(1, |level|)
is a DomainTooSmallError: the grid does not resolve it (``_RESOLVED``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy

from .errors import (DomainError, DomainTooSmallError, IterationLimitError,
                     NoBoundStateError, SingularPointError)
from .potentials import Parity, PotentialSpec

_BOUNDARY_LEAK = 1.0e-10
_EIG_TOL = 1.0e-13
_BASE_N = 1025           # grids this small are bracketed from the floor, unseeded
# half-width of every seeded window, times max(1, |seed|): 2.5 times
# the largest distance measured from the 1001-point base level to a seeded
# level, 2.0e-3 (odd Coulomb, from 16001 points to its 8001-point companion)
_WINDOW = 5.0e-3
_RQI_STEPS = 10          # Rayleigh-quotient steps before a refinement fails
# the largest Richardson correction |refined - raw|, times max(1, |refined|),
# of a resolved level: quartic levels on Grid(6, 4001) read 1.0e-2 at
# g = 1e12, where the level is right to 4.7e-6, and 0.137 at g = 1e16,
# where it is 2.3% off
_RESOLVED = 0.05


def _load_flapack():
    """scipy's LAPACK extension, loaded from its file in scipy/linalg.

    Importing it as ``scipy.linalg._flapack`` first runs the whole
    ``scipy.linalg`` package init, 544 modules, about 0.27 s and 28 MB,
    for one compiled extension.  ``import scipy`` stays: on Windows it
    sets up the DLL path.  Where the file is not found, the standard
    import reaches the same module.
    """
    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from scipy.linalg import _flapack
    return _flapack


# loaded at import, not at the first solve, so that no solve pays for it;
# _level reads these names at call time.  The d (float64) routines, since
# _potential_on casts V to float
_flapack = _load_flapack()
_stebz, _gtsv = _flapack.dstebz, _flapack.dgtsv


@dataclass(frozen=True)
class Grid:
    """n points spanning [-half_width, half_width], Dirichlet at the ends.

    ``n`` must be odd so x = 0 is a node; spacing is 2 half_width/(n-1).
    The coarse companion that refining solves has (n + 1)/2 points, made
    odd, so it is exactly twice as coarse only for n = 1 (mod 4): for
    n = 3 (mod 4) the convergence ratio reads off 4 (quartic, 3.9948 at
    n = 4003 against 4.00007 at n = 4001).
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

    def sector(self, parity: Optional[Parity]) -> Tuple[slice, int]:
        """The slice of ``nodes`` that the parity sector solves for, and
        its size: every interior node on the full line; from the center
        node (even) or the node after it (odd) to the last interior node.

        The sectors split at the center index: linspace can leave the
        center node at +-2e-15 rather than 0, so a sign test would
        misplace it.
        """
        start = 1 if parity is None else self.n // 2 + (parity is Parity.ODD)
        return slice(start, self.n - 1), self.n - 1 - start


@dataclass(frozen=True)
class OracleResult:
    eigenvalue: float            # raw value on the requested grid
    eigenfunction: np.ndarray    # sampled on the full grid, zeros at the walls
    parity: Optional[Parity]
    refinement_estimate: float   # Richardson value from grids (n, 2n-1)
    convergence_ratio: float     # coarse/fine error ratio, ~4 in the h^2 regime


def _potential_on(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    """V at the nodes x, one value per node even where the shape returns a
    scalar: a broadcast view, not a copy."""
    return np.broadcast_to(np.asarray(spec(x), dtype=float), x.shape)


def _coarser(grid: Grid) -> Grid:
    """The next-coarser grid: (n + 1)/2 points, made odd."""
    nc = (grid.n + 1) // 2
    if nc % 2 == 0:
        nc += 1
    return Grid(grid.half_width, nc)


def _level_count(grid: Grid, parity: Optional[Parity], refine: bool) -> int:
    """How many levels a solve on ``grid`` can return: those of its parity
    sector, and when refining those of the coarse companion's, which is
    never larger."""
    return (_coarser(grid) if refine else grid).sector(parity)[1]


def _sector_matrix(spec: PotentialSpec, grid: Grid, parity: Optional[Parity]
                   ) -> Tuple[np.ndarray, np.ndarray, Callable]:
    """Diagonal and off-diagonal of the parity-sector Hamiltonian, and its
    Rayleigh quotient.

    The odd sector is the positive-side block, Dirichlet at 0; the even
    sector adds the center node with a sqrt(2)-symmetrized first coupling.
    With t = kappa/h^2, the quotient of a unit sector vector u is

        t sum (u_{i+1} - u_i)^2 + sum V_i u_i^2,

    the differences running over u with the Dirichlet zero added at each
    end; in the even sector the head is sqrt(2) u_0, the center node's
    value, in place of the zero and u_0.  The quotient never forms the
    stored diagonal fl(2t + V), which rounds V's low bits away once t is
    large: the bisected levels of that matrix sit 5e-12 to 1.4e-10,
    relative, from those of the exact one on 32,001 rows.  V is evaluated
    again at the quotient's first call, after the Sturm counts, so that no
    count runs while both the diagonal and V are held.  The sums are numpy
    reductions, not dot products: the first BLAS call of a process sets up
    OpenBLAS's buffer, 0.13 to 0.16 MB of resident memory that the grid
    route has no other use for.
    """
    t, part = spec.kappa / grid.spacing ** 2, grid.sector(parity)[0]
    d = 2.0 * t + _potential_on(spec, grid.nodes[part])
    e = np.full(len(d) - 1, -t)
    if parity is Parity.EVEN:
        e[:1] *= math.sqrt(2.0)
    v = None

    def rayleigh(u):
        nonlocal v
        if v is None:
            v = _potential_on(spec, grid.nodes[part])
        du = np.diff(u, prepend=0.0, append=0.0)
        if parity is Parity.EVEN:
            du[:2] = 0.0, u[1] - math.sqrt(2.0) * u[0]
        return float(t * np.sum(du * du) + np.sum(v * u * u))
    return d, e, rayleigh


def _level(d: np.ndarray, e: np.ndarray, k: int, seed: Optional[float],
           rayleigh: Callable) -> Tuple[float, np.ndarray]:
    """Eigenvalue k of the tridiagonal T = (d, e), and its unit eigenvector.

    N(x), the exact Sturm count of eigenvalues at or below x, alone decides
    which eigenvalue is level k; Rayleigh-quotient iteration (B. N. Parlett,
    The Symmetric Eigenvalue Problem (SIAM, 1998), ch. 4) then finds it, its
    quotients taken by ``rayleigh``.  floor lies below the Gershgorin
    interval, so N(floor) = 0.

    A level has two routes.  The window route takes a seed and counts the
    window (lo, hi] around it, seed +- _WINDOW max(1, |seed|); a ground
    state's reaches down to floor, so that one count, N(hi) = 1, certifies
    it, and any other level's takes N(lo) = k and N(hi) = k + 1 (a low end
    whose count exceeds k leaves hi uncounted).  A certified level is
    refined from the seed, and the refinement stands if its value, give or
    take its residual, lies in the window.  The bracket route takes every
    other case: no seed, a window that does not hold level k alone, or a
    refinement that does not stand.  It works on one bracket (a, b] with
    N(a) <= k < N(b), which every count narrows, the window's included: a
    count above k moves b down to it, any other moves a up.  While no b is
    known (no seed, or a window below the level), a steps up from floor or
    hi by 1, 2, 4, ..., capped at top, past the Gershgorin interval, where
    N(top) is the number of rows.  The bracket is then halved while it
    holds more than one level and is wider than _EIG_TOL max(1, |a|, |b|),
    bisected (dstebz range 'V') to _EIG_TOL, and its entry k - N(a), level
    k, refined.  A pair closer than the counts can split, such as the two
    wall states of an inverted quartic, is bisected together.  So a bad
    seed costs its window counts and one bracket, never a count on the far
    side of the window, and never changes which level is found.  The window
    is counted before the refinement runs, so that no count runs while V
    and the vector are held.
    A count is dstebz over (floor, x] with an infinite tolerance: two Sturm
    sweeps at the ends and one midpoint sweep, no bisection; below floor
    and from top up it needs no call.

    A refinement from the shift sigma solves (T - sigma) y = u with dgtsv,
    from u = linspace(1, 2), which is neither even nor odd, sets u to y/|y|
    and sigma to the quotient of u, until that moves sigma by _EIG_TOL
    relative or less; 1/|y| + |value - sigma| is then its residual, since
    |(T - sigma) u| = 1/|y|.  Not settling in _RQI_STEPS steps fails the
    refinement: a window's falls back to the bracket route, the bracket
    route's raises IterationLimitError.  So does a NaN level or residual.
    A solve whose y overflows the float range, as on a wall of 1e300,
    raises it at once, before that overflow can warn or turn u to NaN.
    Each solve overwrites u, so that no second vector is held.  The last
    solve starts from u rounded to four decimals, at the quotient rounded
    to ten significant digits, and the level is the quotient of its vector:
    both roundings hide the last bits in which the iterates of different
    seeds differ, so that the level and vector depend on the matrix alone,
    and every printed digit with them.  A one-row matrix is its own level,
    with the unit vector.
    """
    if len(d) == 1:
        # the dstebz wrapper rejects an empty off-diagonal
        return float(d[0]), np.ones(1)
    floor = np.min(d) - 2.0 * np.max(np.abs(e)) - 1.0
    top = np.max(d) + 2.0 * np.max(np.abs(e)) + 1.0

    def stebz(lo, hi, tol):
        """The number of eigenvalues in (lo, hi], and the eigenvalues,
        ascending, bisected to tol."""
        m, w, *_, info = _stebz(d, e, 1, lo, hi, 1, 1, tol, "E")
        if info:
            raise IterationLimitError(f"tridiagonal eigensolve failed (dstebz info {info})")
        return m, w

    # ends[False] is (a, N(a)) with N(a) <= k, ends[True] (b, N(b)) with
    # N(b) > k; b = inf until a count finds one
    ends = [(floor, 0), (math.inf, len(d))]

    def split(x):
        """N(x), counted inside (floor, top); x becomes the end of the
        bracket on its side."""
        n = 0 if x <= floor else len(d) if x >= top else stebz(floor, x, math.inf)[0]
        ends[n > k] = x, n
        return n

    def solve(sigma, u):
        """Overwrite u with y solving (T - sigma) y = u, normalized (by a
        numpy sum, as the quotient is), and return 1/|y|; a |y|^2 past the
        float range is an IterationLimitError.  A zero pivot means that
        sigma is an eigenvalue to working precision: the solve is repeated
        one float above it, from the u that the failed solve left."""
        while _gtsv(e.copy(), d - sigma, e.copy(), u, 1, 1, 1, 1)[4]:
            sigma = np.nextafter(sigma, math.inf)
        with np.errstate(over="ignore"):
            norm2 = np.sum(u * u)
        if not math.isfinite(norm2):
            raise IterationLimitError(
                f"the solve at the shift {float(sigma):.10g} overflows the float range")
        r = norm2 ** -0.5
        u *= r
        return r

    def refine(sigma):
        """(value, residual, unit vector) refined from the shift sigma."""
        u = np.linspace(1.0, 2.0, len(d))
        for _ in range(_RQI_STEPS):
            r = solve(sigma, u)
            rho = rayleigh(u)
            if abs(rho - sigma) <= _EIG_TOL * max(1.0, abs(rho)):
                break
            sigma = rho
        else:
            r = math.inf
        solve(float(f"{rho:.9e}"), u.round(4, out=u))
        value = rayleigh(u)
        return value, r + abs(value - sigma), u

    lo = hi = value = r = math.inf
    if seed is not None:
        w = _WINDOW * max(1.0, abs(seed))
        lo, hi = seed - w if k else floor, seed + w
        n_lo = split(lo)
        n_hi = split(hi) if n_lo <= k else None
        if (n_lo, n_hi) == (k, k + 1):
            value, r, u = refine(seed)
    if not lo < value - r <= value + r <= hi:
        step = max(1.0, np.spacing(abs(ends[False][0])))
        while ends[True][0] == math.inf:
            split(min(ends[False][0] + step, top))
            step *= 2.0
        (a, n_a), (b, n_b) = ends
        while n_b - n_a > 1 and b - a > _EIG_TOL * max(1.0, abs(a), abs(b)):
            split(0.5 * a + 0.5 * b)
            (a, n_a), (b, n_b) = ends
        m, levels = stebz(a, b, _EIG_TOL)
        if k - n_a >= m:
            raise IterationLimitError("the index solve found no level")
        value, r, u = refine(levels[k - n_a])
    if not r < math.inf:
        raise IterationLimitError(f"no Rayleigh quotient settled: level {value!r}, residual {r!r}")
    return value, u


def _seed(h: float, rungs: Tuple[Tuple[float, float], ...]) -> Optional[float]:
    """The seed of a level on spacing ``h``, from the same level on the
    coarser rungs, ``(spacing, level)`` nearest first; None, a bracket
    from the floor, without rungs.

    Two rungs give the h^2 extrapolation through them (L. F. Richardson,
    Phil. Trans. R. Soc. A 210, 307 (1911)), with the spacings of the
    actual grids; one rung gives its level.
    """
    if not rungs:
        return None
    h1, e1 = rungs[0]
    if len(rungs) == 1:
        return e1
    h2, e2 = rungs[1]
    return e1 + (e1 - e2) * (h1 * h1 - h * h) / (h2 * h2 - h1 * h1)


def _solve_sector(spec: PotentialSpec, grid: Grid, k: int,
                  parity: Optional[Parity], seed: Optional[float] = None
                  ) -> Tuple[float, np.ndarray]:
    """Eigenvalue k in the parity sector by ``_level``, seeded or from
    the floor, and its unit eigenvector on the sector's nodes."""
    d, e, rayleigh = _sector_matrix(spec, grid, parity)
    if not np.all(np.isfinite(d)):
        raise DomainError("the potential is not finite on the grid")
    return _level(d, e, k, seed, rayleigh)


def _classify_parity(psi: np.ndarray) -> Optional[Parity]:
    scale = float(np.max(np.abs(psi)))
    if np.max(np.abs(psi - psi[::-1])) < 1.0e-6 * scale:
        return Parity.EVEN
    if np.max(np.abs(psi + psi[::-1])) < 1.0e-6 * scale:
        return Parity.ODD
    return None


def _lowest_at_wall(spec: PotentialSpec, grid: Grid,
                    parity: Optional[Parity]) -> bool:
    """Whether V, over the nodes of the sector and its walls, is lowest at
    x = +-half_width."""
    x = grid.nodes[0 if parity is None else grid.sector(parity)[0].start:]
    return abs(x[np.argmin(_potential_on(spec, x))]) == grid.half_width


def eigenvalue_by_index(spec: PotentialSpec, grid: Grid, k: int,
                        parity: Optional[Parity] = None,
                        refine: bool = True) -> OracleResult:
    """Level k (within the parity sector if one is given), grid route.

    k must be below ``_level_count``: the size of the sector, and when
    refining also of the coarse companion's.  A level that has not decayed
    at the box edge is a DomainTooSmallError, or a NoBoundStateError when V
    is lowest at the wall, where no larger box would confine it.  So is a
    refined level that the grid does not resolve: one whose Richardson
    correction exceeds _RESOLVED max(1, |refined|).
    """
    if k < 0:
        raise DomainError("level index must be nonnegative")
    if parity is not Parity.ODD and spec.family.singular_at_origin:
        raise SingularPointError(
            f"the {spec.family.name} shape is singular at the center node; "
            "solve the odd sector")
    count = _level_count(grid, parity, refine)
    if k >= count:
        raise DomainError(f"level index {k} exceeds the sector size {count}")
    # the ladder, coarsest first: the base, the grid halved while the
    # coarser odd sector, the smallest, holds level k; the coarse companion
    # when refining; the grid
    base = grid
    while base.n > _BASE_N and k < _coarser(base).sector(Parity.ODD)[1]:
        base = _coarser(base)
    rungs = ()
    for g in sorted({base, _coarser(grid) if refine else base, grid}, key=lambda g: g.n):
        seed = _seed(g.spacing, rungs) if g.n > _BASE_N else None
        raw, psi = _solve_sector(spec, g, k, parity, seed)
        rungs = ((g.spacing, raw),) + rungs[:1]
    # on the full grid, the positive side mirrored with a sign for odd levels
    c = grid.n // 2
    psi = np.pad(psi, (grid.n - 1 - len(psi), 1))
    if parity is Parity.EVEN:
        psi[c] *= math.sqrt(2.0)
    if parity is not None:
        psi[1:c] = psi[-2:c:-1] if parity is Parity.EVEN else -psi[-2:c:-1]
    peak = float(np.max(np.abs(psi)))
    if max(abs(psi[1]), abs(psi[-2])) > _BOUNDARY_LEAK * peak:
        if _lowest_at_wall(spec, grid, parity):
            raise NoBoundStateError(
                f"level {k} sits against the box wall, where the potential "
                "is lowest: no box confines it")
        raise DomainTooSmallError(
            "eigenfunction has not decayed at the box edge: enlarge half_width, "
            f"or n if the grid spacing {grid.spacing:.6g} is too coarse for the level")
    psi = psi / math.sqrt(float(np.sum(psi ** 2)) * grid.spacing)
    if psi[np.argmax(np.abs(psi))] < 0.0:
        psi = -psi
    found_parity = parity if parity is not None else _classify_parity(psi)
    refined, ratio = raw, math.nan
    if refine:
        fine = Grid(grid.half_width, 2 * grid.n - 1)
        e_f, _ = _solve_sector(spec, fine, k, parity, _seed(fine.spacing, rungs))
        refined = (4.0 * e_f - raw) / 3.0
        moved = abs(refined - raw) / max(1.0, abs(refined))
        if moved > _RESOLVED:
            raise DomainTooSmallError(f"level {k} is not resolved on {grid.n} points: "
                                      f"refining moves it by {moved:.3g} of its size; enlarge n")
        denom = raw - e_f
        ratio = (rungs[1][1] - raw) / denom if denom != 0.0 else math.nan
    return OracleResult(raw, psi, found_parity, refined, ratio)


def ground_state(spec: PotentialSpec, grid: Grid,
                 parity: Optional[Parity] = None,
                 refine: bool = True) -> OracleResult:
    """Lowest level, full line by default or restricted to a parity sector.

    Parity sectors presume a symmetric potential; for asymmetric shapes
    (Morse) leave parity unset and classification reports None.
    """
    return eigenvalue_by_index(spec, grid, 0, parity=parity, refine=refine)
