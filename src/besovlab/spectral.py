"""Periodic pseudo-spectral core: grids, transform-backed fields, exact operators.

Everything downstream (dyadic decompositions, norms, solvers, integrators)
manipulates fields through this module.  A field is a real function on an
``n x n`` torus of side ``L``, stored by its half spectrum: the ``rfft2``
coefficients, shape ``(n, n/2+1)``, with ky = 0, 1, ..., n/2 along the columns
and the negative ky implied by conjugate symmetry.  Every 2-D grid table
(wavenumbers, projector symbols, heat factors, dyadic masks) has those n/2+1
columns.  Derivatives, projections and heat propagation act as exact spectral
multipliers, and all pointwise products are dealiased by zero padding onto a
finer grid before multiplication.  A sum of products is added on that finer
grid and folded back once, since the truncation is linear.

Parseval on a half spectrum: the columns 1..n/2-1 stand for themselves and
their conjugate mirrors, so sums of |c|^2 weight them twice
(`Grid.parseval_weights`); the self-conjugate columns 0 and n/2 count once.

The product grid follows the 3/2 rule (Orszag 1971): both factors are
band-limited to |k| <= n/2 per axis (the Nyquist line is split evenly between
+n/2 and -n/2), so their product reaches |k| = n, and on an M-point grid a
mode k aliases onto k - M.  Keeping every retained mode |k| <= n/2 clean needs
n - M < -n/2, that is M >= 3n/2 + 1; with M = 3n/2 the product mode at k = n
would land on the retained -n/2 line.  M is rounded up to a 5-smooth length so
the transforms stay fast (200 at n=128, 100 at n=64, 15 at n=8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "SpectralField",
    "VectorField",
    "centered",
    "make_grid",
    "multiply",
    "reused_factor",
    "derivative",
    "drop_nyquist",
    "gradient",
    "divergence",
    "require_solenoidal",
    "l2_norm",
    "advect",
    "advect_vector",
    "leray_project",
    "gradient_part",
    "heat_propagate",
    "potential_from_gradient",
    "real_samples",
    "refine",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _five_smooth_at_least(m: int) -> int:
    """Smallest integer >= m with no prime factor above 5."""
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform n-by-n lattice on the periodic square [0, L)^2."""

    n: int
    L: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or not _is_power_of_two(int(self.n)) or self.n < 8:
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n}")
        if not (self.L > 0.0) or not np.isfinite(self.L):
            raise ValueError(f"domain side must be positive and finite, got {self.L}")

    @property
    def h(self) -> float:
        """Mesh spacing L/n."""
        return self.L / self.n

    @property
    def cell_area(self) -> float:
        return (self.L / self.n) ** 2

    @cached_property
    def mode_index(self) -> np.ndarray:
        """Integer frequency indices in FFT layout (0, 1, ..., -n/2, ..., -1); the columns take the first n/2+1."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)

    @cached_property
    def kx(self) -> np.ndarray:
        k1 = 2.0 * np.pi / self.L * self.mode_index
        return np.broadcast_to(k1[:, None], (self.n, self.n // 2 + 1))

    @cached_property
    def ky(self) -> np.ndarray:
        k1 = 2.0 * np.pi / self.L * self.mode_index[: self.n // 2 + 1]
        return np.broadcast_to(k1[None, :], (self.n, self.n // 2 + 1))

    @cached_property
    def k_squared(self) -> np.ndarray:
        return self.kx**2 + self.ky**2

    @cached_property
    def k_magnitude(self) -> np.ndarray:
        return np.sqrt(self.k_squared)

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """Column weights that turn a half-spectrum sum of |c|^2 into the full-spectrum sum."""
        w = np.full(self.n // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return _freeze(w)

    @cached_property
    def product_size(self) -> int:
        """Side M of the grid pointwise products are formed on: the smallest
        5-smooth M >= 3n/2 + 1 (see the module docstring for the +1)."""
        return _five_smooth_at_least(3 * self.n // 2 + 1)

    @cached_property
    def derivative_symbols(self) -> tuple[np.ndarray, np.ndarray]:
        """One-axis symbols i*k, as is and with the unpaired -n/2 frequency zeroed.

        An odd power of (ik) at -n/2 has no conjugate partner and would inject
        a spurious imaginary part into real fields, so odd orders use the
        second table.  The columns take the first n/2+1 entries.
        """
        ik = 1j * (2.0 * np.pi / self.L * self.mode_index)
        ik_odd = ik.copy()
        ik_odd[self.n // 2] = 0.0
        return _freeze(ik), _freeze(ik_odd)

    @cached_property
    def projector_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit wavevector components (ex, ey) for the Leray projector.

        Same wavevector convention as `derivative`: the unpaired -n/2
        frequency carries no first derivative, so the projector treats that
        component as zero or projected fields would fail the divergence check.
        The mean mode and the corner where both lines cross get ex = ey = 0.
        """
        h = self.n // 2
        kx = self.kx.copy()
        ky = self.ky.copy()
        kx[h, :] = 0.0
        ky[:, h] = 0.0
        k2 = kx * kx + ky * ky
        k2[k2 == 0.0] = 1.0
        return _freeze(kx / np.sqrt(k2)), _freeze(ky / np.sqrt(k2))

    @cached_property
    def half_grad_inverse_neg_laplacian(self) -> np.ndarray:
        """Symbols i k_j/|k|^2 of grad (-Laplace)^-1, zero on the mean and both -n/2 lines."""
        h = self.n // 2
        ksq = np.maximum(self.k_squared, self.k_min_nonzero**2)  # k = 0 has a zero numerator
        symbols = 1j * np.stack((self.kx, self.ky)) / ksq
        symbols[:, h] = symbols[:, :, h] = 0.0
        return _freeze(symbols)

    @cached_property
    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical node coordinates (x varies along axis 0, y along axis 1)."""
        s = np.arange(self.n) * self.h
        return np.meshgrid(s, s, indexing="ij")

    @property
    def k_min_nonzero(self) -> float:
        """Magnitude of the smallest nonzero resolvable wavenumber."""
        return 2.0 * np.pi / self.L

    @property
    def k_max(self) -> float:
        """Magnitude of the largest resolvable wavenumber (corner mode)."""
        return 2.0 * np.pi / self.L * (self.n / 2) * np.sqrt(2.0)


def make_grid(n: int, L: float = 2.0 * np.pi) -> Grid:
    """Build a periodic grid; n must be a power of two >= 8."""
    return Grid(int(n), float(L))


@dataclass(frozen=True)
class SpectralField:
    """Real scalar field on a Grid, stored by its half spectrum (``rfft2`` layout, n x (n/2+1)).

    Fields are immutable values: every operator returns a new instance and the
    coefficient array is marked read-only.
    """

    grid: Grid
    modes: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.modes, dtype=np.complex128)
        if m.shape != (self.grid.n, self.grid.n // 2 + 1):
            raise ValueError(f"half-spectrum shape {m.shape} does not match grid n={self.grid.n}")
        object.__setattr__(self, "modes", _freeze(m))

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        v = np.asarray(values)
        if v.shape != (grid.n, grid.n):
            raise ValueError(f"value array shape {v.shape} does not match grid n={grid.n}")
        if np.iscomplexobj(v):
            raise ValueError("fields are real: node values must not be complex")
        if not np.isfinite(v).all():
            node = tuple(int(i) for i in np.argwhere(~np.isfinite(v))[0])
            raise ValueError(f"node values must be finite: node {node} holds {v[node]}")
        return cls(grid, np.fft.rfft2(v))

    @classmethod
    def zero(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros((grid.n, grid.n // 2 + 1), dtype=np.complex128))

    @cached_property
    def values(self) -> np.ndarray:
        """Physical node values."""
        return _freeze(np.fft.irfft2(self.modes, s=(self.grid.n, self.grid.n)))

    @property
    def mean(self) -> float:
        return float(self.modes[0, 0].real) / self.grid.n**2

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def with_modes(self, modes: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, modes)

    def filtered(self, multiplier: np.ndarray) -> "SpectralField":
        """Apply a real, radially symmetric spectral multiplier table."""
        return self.with_modes(self.modes * multiplier)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self.grid, other.grid)
        return SpectralField(self.grid, self.modes + other.modes)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self.grid, other.grid)
        return SpectralField(self.grid, self.modes - other.modes)

    def __mul__(self, c: float) -> "SpectralField":
        if isinstance(c, SpectralField):
            raise TypeError("use multiply(f, g) for pointwise field products (dealiased)")
        if np.iscomplexobj(np.asarray(c)):
            raise ValueError("fields are real: a complex factor would leave them")
        return SpectralField(self.grid, self.modes * c)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.modes)


@dataclass(frozen=True)
class VectorField:
    """Pair of scalar fields forming a planar vector field (u1, u2)."""

    u1: SpectralField
    u2: SpectralField

    def __post_init__(self) -> None:
        _check_same_grid(self.u1.grid, self.u2.grid)

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    @classmethod
    def from_physical(cls, grid: Grid, v1: np.ndarray, v2: np.ndarray) -> "VectorField":
        return cls(SpectralField.from_physical(grid, v1), SpectralField.from_physical(grid, v2))

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        return cls(SpectralField.zero(grid), SpectralField.zero(grid))

    @property
    def components(self) -> tuple[SpectralField, SpectralField]:
        return (self.u1, self.u2)

    def magnitude_values(self) -> np.ndarray:
        """Pointwise Euclidean magnitude on the grid."""
        return np.sqrt(self.u1.values**2 + self.u2.values**2)

    def linf(self) -> float:
        return float(np.max(self.magnitude_values()))

    def map(self, op) -> "VectorField":
        return VectorField(op(self.u1), op(self.u2))

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.u1 + other.u1, self.u2 + other.u2)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.u1 - other.u1, self.u2 - other.u2)

    def __mul__(self, c: float) -> "VectorField":
        return VectorField(self.u1 * c, self.u2 * c)

    __rmul__ = __mul__

    def __neg__(self) -> "VectorField":
        return VectorField(-self.u1, -self.u2)


def _check_same_grid(a: Grid, b: Grid) -> None:
    if a.n != b.n or a.L != b.L:
        raise ValueError(f"grid mismatch: ({a.n}, {a.L}) vs ({b.n}, {b.L})")


# ---------------------------------------------------------------------------
# dealiased products
# ---------------------------------------------------------------------------

def refine(f: SpectralField, factor: int = 2) -> SpectralField:
    """Resample the same trigonometric polynomial on a grid ``factor`` times finer.

    The lone Nyquist row/column is split evenly between +n/2 and -n/2 on the
    fine grid so that real fields stay real.
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError(f"refinement factor must be a positive integer, got {factor}")
    if factor == 1:
        return f
    N = factor * f.grid.n
    fine = np.zeros((N, N // 2 + 1), dtype=np.complex128)
    _spread(f.modes * factor**2, fine)
    return SpectralField(Grid(N, f.grid.L), fine)


def _spread(c: np.ndarray, out: np.ndarray) -> None:
    """Copy the half spectrum c into the first n/2+1 columns of the zeroed, larger half spectrum out.

    The -n/2 row lands on +n/2 and -n/2, half on each; the -n/2 column becomes
    +n/2 at half weight, its -n/2 half implied by conjugate symmetry.
    """
    h = c.shape[0] // 2
    out[: h + 1, : h + 1] = c[: h + 1]
    out[len(out) - h :, : h + 1] = c[h:]
    out[h] *= 0.5
    out[len(out) - h] *= 0.5
    out[:, h] *= 0.5


def real_samples(f: SpectralField, M: int) -> np.ndarray:
    """Samples of f on an M x M grid of the same box, M >= n.

    The stored half spectrum is spread into an M x (n/2+1) half spectrum,
    with the Nyquist lines split evenly between +n/2 and -n/2 as in `refine`;
    one real inverse transform then evaluates it (irfft2 zero-fills the
    columns beyond n/2).  At M = n the two halves of a split line would land
    on the same line, so the node values are returned.
    """
    n = f.grid.n
    if M < n:
        raise ValueError(f"sample grid side must be at least n={n}, got {M}")
    if M == n:
        return np.ascontiguousarray(f.values)
    return _padded_samples(f.modes * (M / n) ** 2, M)


def _padded_samples(c: np.ndarray, M: int) -> np.ndarray:
    padded = np.zeros((M, c.shape[1]), dtype=np.complex128)
    _spread(c, padded)
    return np.fft.irfft2(padded, s=(M, M))


def _product_samples(f: SpectralField) -> np.ndarray:
    """Samples of f on the M x M product grid, scaled by (n/M)^2; `multiply` undoes the scale once.

    A field made by `reused_factor` carries these samples already.
    """
    held = f.__dict__.get("_product_samples")
    if held is not None:
        return held
    return _padded_samples(f.modes, f.grid.product_size)


def _coarse_modes(q: np.ndarray, grid: Grid) -> np.ndarray:
    """Restrict the first n/2+1 columns of a real product's half spectrum to the n-grid half spectrum.

    Frequencies +-n/2 fold onto the stored -n/2 lines (the adjoint of the
    Nyquist split); the -n/2 column takes the +n/2 column and its conjugate
    mirror, so it stays self-conjugate.
    """
    n, M, h = grid.n, grid.product_size, grid.n // 2
    half = np.concatenate((q[:h], q[M - h :]))
    half[h] += q[h]
    half[:, h] += np.conj(half[-np.arange(n) % n, h])
    return half


def reused_factor(f: SpectralField) -> SpectralField:
    """The field f, carrying its product-grid samples into every `multiply`.

    For a factor that enters many products (a coefficient across a pressure
    solve or a time step), this transforms it once instead of once per
    product.  Node values that f already holds come along.
    """
    if "_product_samples" in f.__dict__:
        return f
    held = SpectralField(f.grid, f.modes)
    held.__dict__.update(f.__dict__, _product_samples=_freeze(_product_samples(f)))
    return held


def multiply(f: SpectralField, g: SpectralField, *pairs: tuple[SpectralField, SpectralField]) -> SpectralField:
    """Pointwise product fg, dealiased by forming it on the 3/2 product grid.

    The factors are sampled by real-input transforms on the M x M grid of
    `Grid.product_size` (M >= 3n/2 + 1, see the module docstring); the
    product's half spectrum is folded back to the n grid.  Each further pair
    ``(p, q)`` adds pq on the product grid, before that one fold.
    """
    grid = f.grid
    for factor in (g, *(x for pair in pairs for x in pair)):
        _check_same_grid(grid, factor.grid)
    samples = _product_samples(f) * _product_samples(g)
    for u, v in pairs:
        samples += _product_samples(u) * _product_samples(v)
    # rfft2, with the column transforms skipping the columns _coarse_modes does not read
    rows = np.fft.rfft(samples, axis=1)
    q = np.fft.fft(rows[:, : grid.n // 2 + 1], axis=0)
    half = _coarse_modes(q, grid)
    half *= (grid.product_size / grid.n) ** 2
    return SpectralField(grid, half)


# ---------------------------------------------------------------------------
# spectral multipliers
# ---------------------------------------------------------------------------

def _axis_derivative_multiplier(grid: Grid, order: int) -> np.ndarray:
    """One-axis symbol (ik)^order, zero at -n/2 for odd orders."""
    ik, ik_odd = grid.derivative_symbols
    return (ik_odd if order % 2 == 1 else ik) ** order


def derivative(f: SpectralField | VectorField, alpha: tuple[int, int]):
    """Mixed partial derivative of multi-order alpha = (ax, ay)."""
    ax, ay = alpha
    if ax < 0 or ay < 0 or int(ax) != ax or int(ay) != ay:
        raise ValueError(f"derivative orders must be nonnegative integers, got {alpha}")
    if isinstance(f, VectorField):
        return f.map(lambda c: derivative(c, alpha))
    modes = f.modes
    if ax:
        modes = modes * _axis_derivative_multiplier(f.grid, ax)[:, None]
    if ay:
        modes = modes * _axis_derivative_multiplier(f.grid, ay)[None, : f.grid.n // 2 + 1]
    return f.with_modes(modes)


def drop_nyquist(f: SpectralField | VectorField):
    """Zero every mode on an unpaired half-Nyquist line (index -n/2 in either axis).

    First derivatives are not well defined on those lines (see
    _axis_derivative_multiplier), so operators that must be exactly
    skew-adjoint or invertible work on the complementary subspace.
    """
    if isinstance(f, VectorField):
        return f.map(drop_nyquist)
    h = f.grid.n // 2
    modes = f.modes.copy()
    modes[h, :] = modes[:, h] = 0.0
    return f.with_modes(modes)


def gradient(f: SpectralField) -> VectorField:
    return VectorField(derivative(f, (1, 0)), derivative(f, (0, 1)))


def divergence(V: VectorField) -> SpectralField:
    return derivative(V.u1, (1, 0)) + derivative(V.u2, (0, 1))


def l2_norm(f: SpectralField | VectorField) -> float:
    """L2 norm over the torus, from the half spectrum by Parseval (`Grid.parseval_weights`).

    A plain sum: a BLAS call (np.linalg.norm, np.vdot) wakes a second thread that then spins.
    """
    fields = f.components if isinstance(f, VectorField) else (f,)
    w = f.grid.parseval_weights
    total = sum(float(np.sum((c.modes.real**2 + c.modes.imag**2) * w)) for c in fields)
    return math.sqrt(total) * f.grid.L / f.grid.n**2


def require_solenoidal(u: VectorField, tol: float = 1e-8) -> None:
    """Reject u unless |div u| <= tol * |grad u| in L2.

    Both norms are kept on the field object, as its node values are, so each field is evaluated once.
    """
    if "_solenoidal_norms" not in u.__dict__:
        u.__dict__["_solenoidal_norms"] = (
            l2_norm(divergence(u)),
            math.sqrt(l2_norm(derivative(u, (1, 0))) ** 2 + l2_norm(derivative(u, (0, 1))) ** 2),
        )
    div_l2, grad_l2 = u.__dict__["_solenoidal_norms"]
    if not div_l2 <= tol * max(grad_l2, 1e-300):  # also rejects NaN
        raise ValueError(
            f"velocity is not solenoidal: divergence |div u| = {div_l2:.3e}"
            f" exceeds {tol:.0e} * |grad u| = {tol * grad_l2:.3e}"
        )


def advect(V: VectorField, f: SpectralField) -> SpectralField:
    """Convective derivative V . grad(f), one dealiased sum of products."""
    return multiply(V.u1, derivative(f, (1, 0)), (V.u2, derivative(f, (0, 1))))


def advect_vector(V: VectorField, W: VectorField) -> VectorField:
    """Componentwise convective derivative (V . grad) W."""
    V = V.map(reused_factor)
    return VectorField(advect(V, W.u1), advect(V, W.u2))


def leray_project(V: VectorField) -> VectorField:
    """Divergence-free part of V; modes with no derivative (the mean and the
    unpaired Nyquist corner) are kept verbatim."""
    return V - gradient_part(V)


def gradient_part(V: VectorField) -> VectorField:
    """Curl-free (gradient) part of V; zero on the mean mode."""
    ex, ey = V.grid.projector_tables
    kdotu = ex * V.u1.modes + ey * V.u2.modes
    m1, m2 = ex * kdotu, ey * kdotu
    m1[0, 0] = m2[0, 0] = 0.0
    return VectorField(V.u1.with_modes(m1), V.u2.with_modes(m2))


def heat_propagate(f: SpectralField | VectorField, nu: float, t: float):
    """Exact heat semigroup: damp each mode by exp(-nu t |k|^2)."""
    for name, value in (("t", t), ("nu", nu)):
        if not 0.0 <= value < math.inf:  # also rejects NaN
            raise ValueError(f"heat propagation requires a finite {name} >= 0, got {name}={value}")
    if isinstance(f, VectorField):
        return f.map(lambda c: heat_propagate(c, nu, t))
    damp = np.exp(-nu * t * f.grid.k_squared)
    return f.with_modes(f.modes * damp)


def centered(f: SpectralField | VectorField):
    """Copy of a scalar or vector field with its mean (zero) mode removed."""
    if isinstance(f, VectorField):
        return f.map(centered)
    modes = f.modes.copy()
    modes[0, 0] = 0.0
    return f.with_modes(modes)


def potential_from_gradient(V: VectorField) -> SpectralField:
    """Recover the mean-zero scalar g with grad(g) = V (V must be curl-free)."""
    grid = V.grid
    k2 = grid.k_squared.copy()
    k2[0, 0] = 1.0
    g = (grid.kx * V.u1.modes + grid.ky * V.u2.modes) / (1j * k2)
    g[0, 0] = 0.0
    return SpectralField(grid, g)
