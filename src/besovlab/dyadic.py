"""Dyadic frequency decomposition on the torus.

A smooth annular profile ``phi`` (support 3/4 <= r <= 8/3, identically 1 on
(4/3, 3/2)) and its companion ball profile ``chi`` (support r <= 4/3) are
built from the classic bump exp(-1/(1-s^2)) and normalized so that the dyadic
dilates of ``phi`` sum to one at every nonzero radius.  A ``DyadicLadder``
tabulates the induced spectral masks for the finite range of octaves a given
grid can resolve.  The ladder is a function of the grid alone, so
``build_ladder`` keeps one per grid and every consumer takes it from its
field's grid; its masks are read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import Grid, SpectralField, VectorField

__all__ = [
    "ANNULUS_INNER",
    "ANNULUS_OUTER",
    "BALL_RADIUS",
    "DyadicLadder",
    "build_ladder",
    "chi",
    "phi",
]

ANNULUS_INNER = 0.75
ANNULUS_OUTER = 8.0 / 3.0
BALL_RADIUS = 4.0 / 3.0


def _bump(s: np.ndarray) -> np.ndarray:
    """Standard compactly supported bump exp(-1/(1-s^2)) on (-1, 1)."""
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


def _annular_bump(r: np.ndarray) -> np.ndarray:
    # linear map of (3/4, 8/3) onto the bump's (-1, 1)
    r = np.asarray(r, dtype=np.float64)
    s = (2.0 * r - (ANNULUS_INNER + ANNULUS_OUTER)) / (ANNULUS_OUTER - ANNULUS_INNER)
    return _bump(s)


def _octave_sum(r: np.ndarray) -> np.ndarray:
    """Sum of the annular bump over all dyadic dilates (locally a 2-term sum)."""
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    pos = r > 0.0
    rp = r[pos]
    # dilates contributing at radius r have index in (log2(r/B), log2(r/A)),
    # an interval of width log2(32/9) < 2, hence at most two integers
    jbase = np.floor(np.log2(rp / ANNULUS_OUTER))
    acc = np.zeros_like(rp)
    for dj in (0.0, 1.0, 2.0):
        acc += _annular_bump(rp / np.exp2(jbase + dj))
    out[pos] = acc
    return out


def phi(r: np.ndarray) -> np.ndarray:
    """Annular profile: support 3/4 <= r <= 8/3, its dyadic dilates sum to one for r > 0."""
    r = np.asarray(r, dtype=np.float64)
    num = _annular_bump(r)
    out = np.zeros_like(num)
    pos = num > 0.0
    out[pos] = num[pos] / _octave_sum(r[pos])
    return out


def chi(r: np.ndarray) -> np.ndarray:
    """Ball profile: the sum of phi over the dilates 2^m r with m >= 1 (support r <= 4/3)."""
    r = np.asarray(r, dtype=np.float64)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.zeros_like(r)
    out[r == 0.0] = 1.0
    pos = r > 0.0
    rp = r[pos]
    mbase = np.floor(np.log2(ANNULUS_INNER / rp))
    acc = np.zeros_like(rp)
    for dm in (0.0, 1.0, 2.0):
        m = mbase + dm
        valid = m >= 1.0
        acc[valid] += phi(rp[valid] * np.exp2(m[valid]))
    out[pos] = acc
    return out[0] if scalar else out


def _tabulate(table: dict, profile, grid: Grid, j: int) -> np.ndarray:
    """``profile(|k| / 2^j)`` on the grid's lattice: computed once per table, read-only."""
    if j not in table:
        mask = profile(grid.k_magnitude / 2.0**j)
        mask.flags.writeable = False
        table[j] = mask
    return table[j]


@dataclass(frozen=True)
class DyadicLadder:
    """Tabulated dyadic block masks realizable on a grid.

    ``j_min``/``j_max`` are found by direct enumeration: an octave belongs to
    the ladder iff its annular mask is nonzero somewhere on the wavenumber
    lattice.  The low-pass mask at ``j_min`` then contains only the mean mode,
    so the blocks plus that low block reproduce the identity exactly.
    """

    grid: Grid
    j_min: int
    j_max: int
    _phi_masks: dict = field(repr=False)
    _chi_masks: dict = field(repr=False)

    @property
    def js(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def phi_mask(self, j: int) -> np.ndarray:
        return _tabulate(self._phi_masks, phi, self.grid, j)

    def chi_mask(self, j: int) -> np.ndarray:
        return _tabulate(self._chi_masks, chi, self.grid, j)

    def block(self, u: SpectralField | VectorField, j: int):
        """Annular block at octave j (error outside the ladder range)."""
        if not (self.j_min <= j <= self.j_max):
            raise ValueError(f"block index {j} outside ladder range [{self.j_min}, {self.j_max}]")
        if isinstance(u, VectorField):
            return u.map(lambda c: c.filtered(self.phi_mask(j)))
        return u.filtered(self.phi_mask(j))

    def low_pass(self, u: SpectralField | VectorField, j: int):
        """Cumulative low-pass below octave j (any integer j accepted)."""
        if isinstance(u, VectorField):
            return u.map(lambda c: c.filtered(self.chi_mask(j)))
        return u.filtered(self.chi_mask(j))

    def inhomogeneous_block(self, u: SpectralField | VectorField, j: int):
        """Inhomogeneous variant: j = -1 is the low-pass at octave 0, j >= 0 annular."""
        if j == -1:
            return self.low_pass(u, 0)
        if j < -1:
            raise ValueError(f"inhomogeneous block index must be >= -1, got {j}")
        return self.block(u, j)

    def inhomogeneous_js(self) -> range:
        return range(-1, self.j_max + 1)

    def reconstruct(self, u: SpectralField | VectorField):
        """Low block at j_min plus all annular blocks (identity up to rounding)."""
        acc = self.low_pass(u, self.j_min)
        for j in self.js:
            acc = acc + self.block(u, j)
        return acc


# Bounded so that a process touching many grids does not keep every grid's
# masks alive; a run uses one or two grids.
@functools.lru_cache(maxsize=8)
def build_ladder(grid: Grid) -> DyadicLadder:
    """The grid's ladder: the octaves whose annular masks are nonzero on the lattice.

    Equal grids share one ladder object.
    """
    k_low = grid.k_min_nonzero
    k_high = grid.k_max
    j_lo_guess = math.floor(math.log2(k_low * 3.0 / 8.0)) - 1
    j_hi_guess = math.ceil(math.log2(k_high * 4.0 / 3.0)) + 1
    masks: dict[int, np.ndarray] = {}
    live = [
        j for j in range(j_lo_guess, j_hi_guess + 1) if np.any(_tabulate(masks, phi, grid, j) > 0.0)
    ]
    if len(live) < 3:
        raise ValueError(f"grid n={grid.n}, L={grid.L} hosts only {len(live)} dyadic blocks; need at least 3")
    if live != list(range(live[0], live[-1] + 1)):
        raise ValueError(f"dyadic octaves {live} are not contiguous on this grid")
    live_masks = {j: masks[j] for j in live}
    return DyadicLadder(grid=grid, j_min=live[0], j_max=live[-1], _phi_masks=live_masks, _chi_masks={})
