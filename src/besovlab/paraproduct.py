"""Bony decomposition of a pointwise product, and two multiplier commutators.

The product of two fields splits into a low-high paraproduct, its transpose,
and a near-diagonal remainder.  On a torus the dyadic ladder is finite and the
mean modes sit below the lowest octave, so the splitting here attaches the
product of the two mean parts to the lowest remainder/transpose term; with
that bookkeeping both telescoping identities

    u v = para_T(u, v) + para_T_conj(u, v)
    u v = para_T(u, v) + para_T(v, u) + remainder_R(u, v)

hold exactly (to rounding) for every pair of fields, whatever their means.
All products are dealiased, so each identity is a finite sum of exactly
bilinear terms; each paraproduct sums its octave products on the product
grid and folds the sum back once.  Every function takes its octaves from the
ladder of its factors' common grid.
"""

from __future__ import annotations

from .dyadic import DyadicLadder, build_ladder
from .spectral import SpectralField, VectorField, advect, multiply, require_solenoidal

__all__ = [
    "para_T",
    "para_T_conj",
    "remainder_R",
    "commutator_block",
    "transport_commutator",
]


def _ladder_of(u: SpectralField, v: SpectralField) -> DyadicLadder:
    """The ladder of the factors' grid, which they must share."""
    if u.grid != v.grid:
        raise ValueError("paraproduct factors must share one grid")
    return build_ladder(u.grid)


def _mean_pair(u: SpectralField, v: SpectralField) -> tuple[SpectralField, SpectralField]:
    # the two sub-ladder (mean) parts, whose product is a constant field
    ladder = build_ladder(u.grid)
    return ladder.low_pass(u, ladder.j_min), ladder.low_pass(v, ladder.j_min)


def para_T(u: SpectralField, v: SpectralField) -> SpectralField:
    """Low-high paraproduct: sum over octaves of low_pass(u, j-1) * block_j(v).

    The partial sums of u include its mean at every octave, while v enters
    only through annular blocks; with a constant first factor c this returns
    c * (v - mean of v).  The octave products are summed on the product grid
    and folded back once.
    """
    ladder = _ladder_of(u, v)
    first, *rest = ((ladder.low_pass(u, j - 1), ladder.block(v, j)) for j in ladder.js)
    return multiply(*first, *rest)


def para_T_conj(u: SpectralField, v: SpectralField) -> SpectralField:
    """Transpose sum block_j(u) * low_pass(v, j+2), plus the mean-mean product.

    Complements para_T exactly: para_T(u, v) + para_T_conj(u, v) == u*v.
    """
    ladder = _ladder_of(u, v)
    return multiply(*_mean_pair(u, v), *((ladder.block(u, j), ladder.low_pass(v, j + 2)) for j in ladder.js))


def remainder_R(u: SpectralField, v: SpectralField) -> SpectralField:
    """Near-diagonal remainder: block pairs at most one octave apart.

    Includes the mean-mean product so that the three-term splitting
    para_T(u, v) + para_T(v, u) + remainder_R(u, v) reproduces u*v exactly.
    Symmetric in its two arguments.
    """
    ladder = _ladder_of(u, v)
    blocks_v = {j: ladder.block(v, j) for j in ladder.js}
    # by bilinearity, block_j(u) times the sum of v's neighbouring blocks
    # equals the sum of the block-pair products
    near = {j: sum((blocks_v[jp] for jp in (j - 1, j + 1) if jp in blocks_v), blocks_v[j]) for j in ladder.js}
    return multiply(*_mean_pair(u, v), *((ladder.block(u, j), near[j]) for j in ladder.js))


def commutator_block(a: SpectralField, f: SpectralField | VectorField, j: int):
    """Commutator of the octave-j block with multiplication by a: block_j(a f) - a block_j(f).

    Linear in f; vanishes identically for constant a.  Applied componentwise
    to vector fields.
    """
    if isinstance(f, VectorField):
        return VectorField(
            commutator_block(a, f.u1, j),
            commutator_block(a, f.u2, j),
        )
    ladder = _ladder_of(a, f)
    return ladder.block(multiply(a, f), j) - multiply(a, ladder.block(f, j))


def transport_commutator(u: VectorField, a: SpectralField, j: int) -> SpectralField:
    """Commutator of advection along u with the octave-j block.

    Returns u . grad(block_j a) - block_j(u . grad a) for a divergence-free
    velocity; the divergence-free requirement is enforced because only then
    does the commutator carry the one-octave smoothing that makes it useful.
    """
    ladder = _ladder_of(a, u.u1)
    require_solenoidal(u, 1e-10)
    return advect(u, ladder.block(a, j)) - ladder.block(advect(u, a), j)
