"""Off-grid evaluation of periodic fields.

Query points rarely fall on grid nodes: particle trackers need velocities at
departure points, and pullbacks need fields along a deformed mesh.  The
sampler here evaluates a field anywhere on the torus in two stages.  First the
field is resampled exactly onto a uniform grid ``upsample`` times finer (a
trigonometric identity, no information is lost; one real inverse transform
per plane).  Then tensor-product cubic Lagrange interpolation on the
surrounding 4x4 stencil produces the value at the query point.  The
refinement factor trades memory for accuracy while the per-point cost stays
constant.

A sampler holds any number of planes on one grid, and :meth:`PeriodicSampler.at`
evaluates them all at the same points: the points are taken in fixed-size
chunks, and each chunk's stencil (16 wrapped node indices and 16 weights per
point) is computed once and shared by every plane.  Fields sampled at the same
points, such as both time neighbours of a velocity history, therefore belong
in one sampler; :meth:`PeriodicSampler.joined` combines samplers without
copying their planes.  Each refined plane costs (upsample n)^2 floats, so a
user holds a sampler only while it evaluates: the flow-map tracker keeps one
time interval's planes at a time.  The query points are checked once per
call: a NaN or infinite point raises ValueError naming it.

For schemes that must not create new extrema, :func:`cell_bounds` returns the
min/max of the four base-grid corners enclosing each query point; clipping an
interpolated value to that range keeps it inside the local data hull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, SpectralField, VectorField, real_samples

__all__ = [
    "PeriodicSampler",
    "cell_bounds",
]

# the stencil offsets -1, 0, 1, 2 as positions in a wrap table that starts at -1
_TABLE_OFFSETS = np.arange(4)[:, None]
# points per stencil; bounds the (16, chunk) index, weight and gather buffers
_CHUNK = 4096


def _cubic_weights(s: np.ndarray) -> np.ndarray:
    """Lagrange weights on the nodes {-1, 0, 1, 2} at offsets s in [0, 1).

    Returns an array with a leading axis of length 4; the weights sum to one
    identically, so constants are reproduced exactly.
    """
    a, c, d = s + 1.0, s - 1.0, s - 2.0
    w = np.empty((4,) + s.shape, dtype=float)
    w[0] = -s * c * d / 6.0
    w[1] = a * c * d / 2.0
    w[2] = -a * s * d / 2.0
    w[3] = a * s * c / 6.0
    return w


def _index_split(x: np.ndarray, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split physical coordinates into wrapped base indices and offsets."""
    ix = np.asarray(x, dtype=float) / h
    base = np.floor(ix)
    return base.astype(np.int64) % n, ix - base


def _finite_points(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Query coordinates broadcast together as floats; a NaN or infinite point raises ValueError."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    finite = (np.isfinite(x) & np.isfinite(y)).ravel()
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"query point {k} is not finite: ({x.ravel()[k]}, {y.ravel()[k]})")
    return x, y


def _stencil(
    x: np.ndarray, y: np.ndarray, h: float, n: int, index: np.ndarray, weights: np.ndarray
) -> None:
    """Fill the flat node indices and tensor weights of the 4x4 stencils of 1-D points.

    ``index`` and ``weights`` are contiguous (16, P) buffers; row 4a + b
    holds the node at offsets (a - 1, b - 1) from each point's base node,
    and its weight wx_a * wy_b.
    """
    bx, sx = _index_split(x, h, n)
    by, sy = _index_split(y, h, n)
    # a base index plus an offset lies in [-1, n + 1]; look its wrap up
    wrap = np.arange(-1, n + 2) % n
    rows = np.take(wrap * n, bx + _TABLE_OFFSETS)
    cols = np.take(wrap, by + _TABLE_OFFSETS)
    np.add(rows[:, None, :], cols[None, :, :], out=index.reshape(4, 4, -1))
    np.multiply(
        _cubic_weights(sx)[:, None, :], _cubic_weights(sy)[None, :, :], out=weights.reshape(4, 4, -1)
    )


@dataclass(frozen=True)
class PeriodicSampler:
    """Evaluates one or more periodic planes at arbitrary torus points.

    Planes share one grid; they are stored as physical values on the refined
    mesh.  Construct via :meth:`of_scalar` or :meth:`of_vector`, and combine
    samplers of one grid with :meth:`joined`.
    """

    length: float
    planes: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.planes:
            raise ValueError("sampler needs at least one plane")
        shape = self.planes[0].shape
        for p in self.planes:
            if p.shape != shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
                raise ValueError("sampler planes must be square and share one shape")

    @classmethod
    def of_scalar(cls, f: SpectralField, upsample: int = 4) -> "PeriodicSampler":
        return cls(f.grid.L, (real_samples(f, upsample * f.grid.n),))

    @classmethod
    def of_vector(cls, V: VectorField, upsample: int = 4) -> "PeriodicSampler":
        M = upsample * V.grid.n
        return cls(V.grid.L, (real_samples(V.u1, M), real_samples(V.u2, M)))

    @classmethod
    def joined(cls, *samplers: "PeriodicSampler") -> "PeriodicSampler":
        """One sampler over the planes of several, in order; the planes are shared, not copied."""
        if any(s.length != samplers[0].length for s in samplers):
            raise ValueError("joined samplers must cover one box")
        return cls(samplers[0].length, tuple(p for s in samplers for p in s.planes))

    @property
    def n(self) -> int:
        return self.planes[0].shape[0]

    @property
    def h(self) -> float:
        return self.length / self.n

    def at(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
        """Sample every plane at the points (x, y); shapes broadcast together.

        Each value is the sum of the 16 weighted stencil terms, added in the
        pairwise order NumPy uses for a contiguous sum of 16: the results are
        bitwise those of ``(p[rows, cols] * w).sum(axis=(-2, -1))``.  A NaN
        or infinite point raises ValueError.
        """
        x, y = _finite_points(x, y)
        xs, ys = x.ravel(), y.ravel()
        outs = tuple(np.empty(xs.size) for _ in self.planes)
        # node indices, weights and weighted terms of one chunk, reused by every chunk
        size = 16 * min(xs.size, _CHUNK)
        buffers = (np.empty(size, dtype=np.int64), np.empty(size), np.empty(size))
        for lo in range(0, xs.size, _CHUNK):
            hi = min(lo + _CHUNK, xs.size)
            index, weights, g = (b[: 16 * (hi - lo)].reshape(16, hi - lo) for b in buffers)
            _stencil(xs[lo:hi], ys[lo:hi], self.h, self.n, index, weights)
            for p, out in zip(self.planes, outs):
                np.take(p, index, out=g, mode="clip")  # indices are wrapped already
                g *= weights
                # r_j = g_j + g_{j+8}, then ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
                r = g[:8]
                r += g[8:]
                np.add(r[0::2], r[1::2], out=r[0::2])
                r[0] += r[2]
                r[4] += r[6]
                np.add(r[0], r[4], out=out[lo:hi])
        # [()] turns a 0-d result into a NumPy scalar, as the reduction above would
        return tuple(out.reshape(x.shape)[()] for out in outs)


def cell_bounds(
    f: SpectralField, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Min and max of the four base-grid corner values around each point.

    The bounds come from the original grid, not any refinement, so clipping to
    them guarantees values stay within the range of the stored data.  A NaN or
    infinite point raises ValueError.
    """
    grid: Grid = f.grid
    vals = f.values
    x, y = _finite_points(x, y)
    bx, _ = _index_split(x, grid.h, grid.n)
    by, _ = _index_split(y, grid.h, grid.n)
    corners = np.stack(
        [vals[(bx + dx) % grid.n, (by + dy) % grid.n] for dx in (0, 1) for dy in (0, 1)],
        axis=-1,
    )
    return corners.min(axis=-1), corners.max(axis=-1)
