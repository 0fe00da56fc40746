"""Complex dense linear algebra kernel shared by the scheme implementations.

Null vectors, zero-forcing (pseudo-inverse) rows with their guards, seeded
circularly symmetric Gaussian sampling and the batched derivation of the
trials' generator seeds.  Every matrix handled here is small
(at most 8x9) and dense, so the routines lean on LAPACK through
``numpy.linalg`` and add shape checks on their inputs.
A null vector's input must be finite; a zero-forcing system that is not
reports a NaN condition, for the decoder to judge.

A null vector comes from a complete QR of ``aᴴ`` and is not judged: a
degenerate draw is judged once, by the decoder.  The zero-forcing rows come
from an SVD, whose singular values the decoder reports and judges.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Tolerances",
    "null_vector",
    "zero_forcing_rows",
    "ordered_sum",
    "matvec",
    "dot",
    "vector_norm",
    "frobenius_norm",
    "standard_normals",
    "complex_gaussian",
    "sample_complex_gaussian",
    "spawn_states",
    "seeded_generators",
]


class _Cutoffs(NamedTuple):
    rank_rel: float = 1e-8
    residual_rel: float = 1e-8


class Tolerances(_Cutoffs):
    """The decoder's relative cutoffs: receive-matrix conditioning and residual acceptance.

    Each must lie strictly inside ``(0, 1)``; ``Tolerances()`` holds the
    defaults, ``1e-8`` each.

    Attributes
    ----------
    rank_rel : float
        Bounds the acceptable condition number of a zero-forcing receive
        matrix at ``1 / rank_rel``: a matrix whose ``s_min / s_max`` is at
        or below it is singular, and its draw is discarded.
    residual_rel : float
        Acceptance threshold for zero-forcing residuals.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``: check its values too
        return cls(*iterable)


# Shape convention: a matrix argument is ``(m, n, *S)`` and a vector ``(n,
# *S)``, where ``S`` is empty or any number of stack axes: a trial axis, and
# before it, where one call handles several systems of a trial, an axis of
# systems.  Results keep the trailing ``*S``.  Every reduction over a stack
# runs either in a stacked LAPACK call, one matrix at a time, or as a
# left-to-right sum of elementwise products, so a system's result does not
# depend on how many systems share the call or where it sits among them.


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or min(a.shape[:2]) < 1:
        raise ValueError(f"expected a nonempty (m, n, *S) array, got shape {np.shape(a)}")
    return a


def _stacked(a: np.ndarray) -> np.ndarray:
    """``(m, n, *S)`` as the ``(*S, m, n)`` stack that ``numpy.linalg`` expects."""
    return np.moveaxis(a, (0, 1), (-2, -1))


def _unstacked(a: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_stacked` for ``(*S, m, n)`` results."""
    return np.moveaxis(a, (-2, -1), (0, 1))


def ordered_sum(terms) -> np.ndarray:
    """Sum of the items of ``terms`` (an iterable or the first axis of an array), left to right."""
    it = iter(terms)
    acc = next(it)
    for term in it:
        acc = acc + term
    return acc


def matvec(a, v) -> np.ndarray:
    """``a @ v`` for ``a`` of shape ``(m, k, *S)`` and ``v`` of shape ``(k, *B, *S)``.

    The sum over ``k`` runs left to right on elementwise products, which
    keeps each system's bits independent of the stack it runs in.
    """
    batch_axes = v.ndim - 1 - (a.ndim - 2)
    a = a.reshape(a.shape[:2] + (1,) * batch_axes + a.shape[2:])
    # v[i : i + 1] keeps both operands at one ndim: for a lone system numpy
    # multiplies operands of different ndim on a scalar path, whose last bit
    # can differ from its vector loop
    return ordered_sum(a[:, i] * v[i : i + 1] for i in range(a.shape[1]))


def dot(c, v) -> np.ndarray:
    """``sum_i c[i] * v[i]`` for ``c`` of shape ``(k, *S)`` and ``v`` of shape ``(k, *B, *S)``."""
    return matvec(c[None], v)[0]


def vector_norm(v) -> np.ndarray:
    """Euclidean norm over the first axis."""
    v = np.asarray(v)
    return np.sqrt(ordered_sum(v.real**2 + v.imag**2))


def frobenius_norm(a) -> np.ndarray:
    """Frobenius norm over the two leading axes."""
    a = np.asarray(a)
    return vector_norm(a.reshape(-1, *a.shape[2:]))


def null_vector(a) -> np.ndarray:
    """Unit-norm right null vector of a wide matrix with a 1-D null space.

    ``a`` must have exactly one row fewer than columns.  The vector is
    returned as LAPACK gives it, at no fixed phase: any vector of the null
    space serves the constructions, which use only its direction.  It
    depends only on ``a``, so repeated calls give an identical result.
    Nothing is judged here: a system short of full row rank has a
    null space of more dimensions, and the vector is one of them, which the
    construction cannot use; the receive matrix built from it is the
    decoder's to judge.

    The kernel is a complete QR of ``aᴴ``: ``aᴴ = Q R`` gives ``a = Rᴴ
    Qᴴ``, and the last row of ``R`` is zero, so ``a`` annihilates the last
    column of ``Q``.  Householder QR factors ``aᴴ + E = Q R`` with ``||E||``
    about ``eps ||a||``, so ``a`` maps that column to ``-Eᴴ`` times it: the
    residual stays at roundoff whatever the condition number.

    A stack of systems goes through one QR call.  LAPACK factors each
    matrix on its own, so each vector is bit for bit what a call on its
    system alone returns.

    Parameters
    ----------
    a : array_like, shape (m, n, *S) with n = m + 1

    Returns
    -------
    v : ndarray, shape (n, *S)
        Unit norm, to roundoff: a column of the unitary ``Q``.
    """
    a = _as_matrix(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    rows, cols = a.shape[:2]
    if rows >= cols:
        raise ValueError(f"null_vector expects rows < cols, got shape {a.shape}")
    if cols - rows != 1:
        # Wider matrices have a larger null space; the caller asked for a
        # single vector, which is only well defined for a one-dimensional
        # null space, i.e. cols == rows + 1 at full row rank.
        raise ValueError("null space is not one-dimensional for this shape")
    flat = a.reshape(rows, cols, -1)
    # aᴴ as a C-ordered (N, n, m) stack: LAPACK's per-matrix copies then
    # read contiguous memory
    q = np.linalg.qr(np.conj(flat.transpose(2, 1, 0), order="C"), mode="complete")[0]
    return q[..., -1].T.reshape(cols, *a.shape[2:])


def zero_forcing_rows(g, rows):
    """Rows ``rows`` of the pseudo-inverse of a wide receive matrix, with its guards.

    ``g`` is ``(n, k, *S)`` with ``n <= k``: ``n`` observations of ``k``
    unknowns.  Its SVD ``g = U S Vᴴ`` gives ``d = V[rows] S⁻¹ Uᴴ``, the
    ``(len(rows), n, *S)`` rows of ``g⁺``.  When ``g`` has full row rank,
    ``d @ g`` is the identity on the unknowns ``rows`` exactly when no
    combination of the other unknowns can mimic them, so ``d`` recovers
    them and zero-forces the rest.

    ``rows`` holds ``w`` indices for every system, or is ``(R, w)``: one
    row per system along the first stack axis (``R`` receivers, say).  As
    for :func:`null_vector`, one stacked LAPACK call serves the stack, bit for bit.

    Returns ``(d, cond, residual)`` for every system: ``cond = s_min /
    s_max`` and ``residual = ||d @ g - I[rows]||_F``, both of shape
    ``(*S)``.  Nothing is judged here; callers judge ``cond``.  A system
    short of full row rank has a ``cond`` at or near zero and may have
    non-finite ``d`` and ``residual``.  A zero system, and one with an entry
    that is not finite, for which a zero system stands in, have a NaN
    ``cond``.
    """
    g = _as_matrix(g)
    n, k = g.shape[:2]
    if n > k:
        raise ValueError(f"zero_forcing_rows expects rows <= cols, got shape {g.shape}")
    finite = np.isfinite(g).all(axis=(0, 1))
    if not finite.all():
        g = np.where(finite, g, 0.0)
    u, s, vh = np.linalg.svd(_stacked(g), full_matrices=False)
    rows = np.asarray(rows)
    if rows.ndim == 1:
        want = vh[..., rows]
    elif g.shape[2:3] == rows.shape[:1]:
        # want[r, ..., j, i] = vh[r, ..., j, rows[r, i]]
        want = np.moveaxis(vh[np.arange(len(rows))[:, None], ..., rows], 1, -1)
    else:
        raise ValueError(f"{len(rows)} row sets for a stack of shape {g.shape[2:]}")
    # d[i, m] = sum_j conj(vh[j, rows[i]]) / s[j] * conj(u[m, j]), summed over
    # contiguous copies: the stack axes then run as long inner loops.  Each
    # factor is freed as soon as its copy exists, which keeps the peak memory
    # of a large stack down.
    del vh
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v_rows = np.ascontiguousarray(np.moveaxis(want.conj() / s[..., None], (-1, -2), (0, 1)))
        del want
        u_h = np.ascontiguousarray(_unstacked(np.swapaxes(u, -1, -2).conj()))
        del u
        d = matvec(v_rows, u_h)
        del v_rows, u_h
        eye = _unstacked(np.eye(k)[rows])
        eye = eye.reshape(eye.shape + (1,) * (g.ndim - 1 - rows.ndim))
        residual = frobenius_norm(matvec(d, g) - eye)
        return d, s[..., -1] / s[..., 0], residual


def standard_normals(rngs: Sequence[np.random.Generator], count: int) -> np.ndarray:
    """``count`` standard normals per generator, as their ``(count, T)`` stack.

    Column ``t`` is ``rngs[t].standard_normal(count)``, which each generator
    writes straight into its row of one buffer: one call per generator.
    """
    z = np.empty((len(rngs), count))
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    return np.ascontiguousarray(z.T)


def complex_gaussian(z: np.ndarray) -> np.ndarray:
    """Unit-variance complex Gaussians from ``2 * count`` rows of standard normals.

    The first ``count`` rows are the real parts and the rest the imaginary
    parts, each scaled to ``N(0, 1/2)`` so that ``E|z|^2 = 1``.
    """
    count = len(z) // 2
    return (z[:count] + 1j * z[count:]) / np.sqrt(2.0)


def sample_complex_gaussian(rngs: Sequence[np.random.Generator], count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. circularly symmetric complex Gaussians per generator, unit variance.

    Real and imaginary parts are independent ``N(0, 1/2)``, drawn as two
    successive runs of ``count`` normals.  Deterministic given the generator
    states.  The result is the ``(count, T)`` stack of the ``T`` generators'
    draws; column ``t`` is bit for bit what ``[rngs[t]]`` alone gives.
    """
    # one draw of 2 * count normals is the two draws of count, back to back
    return complex_gaussian(standard_normals(rngs, 2 * count))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), whose streams
# numpy keeps stable: the entropy words are mixed into a pool of four uint32
# words, and the pool is hashed out into the generator state.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer, as SeedSequence splits it."""
    if value < 0:
        raise ValueError(f"seed entropy must be non-negative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _entropy_runs(entropies) -> list[tuple[np.ndarray, np.ndarray]]:
    """The entropy tuples' assembled SeedSequence entropies, grouped by length.

    One ``(rows, words)`` pair per length: the indices of the tuples whose
    entropy has that many words, and those entropies as ``(len(rows),
    length)`` uint32.
    """
    if len(set(map(len, entropies))) == 1:
        values = np.array(entropies)
        if values.dtype.kind in "iu" and values.min() >= 0 and values.max() <= _MASK32:
            # every value is one word: the tuples are their own entropies
            return [(np.arange(len(values)), values.astype(np.uint32))]
    runs = [[w for value in entropy for w in _uint32_words(value)] for entropy in entropies]
    by_length: dict[int, list[int]] = {}
    for i, run in enumerate(runs):
        by_length.setdefault(len(run), []).append(i)
    return [
        (np.array(rows), np.array([runs[i] for i in rows], dtype=np.uint32))
        for rows in by_length.values()
    ]


@cache
def _const_chain(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k`` modulo 2**32 for ``k < count``, read-only: one array per chain."""
    chain = [init]
    for _ in range(count - 1):
        chain.append(chain[-1] * mult & _MASK32)
    chain = np.array(chain, dtype=np.uint32)
    chain.setflags(write=False)
    return chain


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """PCG64 seed words ``(n, 4)`` uint64 of the SeedSequences of the columns of ``entropy``.

    ``entropy`` is ``(L, n)`` uint32, each column a SeedSequence's assembled
    entropy, with ``L >= 4`` as for any spawned child; row ``i`` of the
    result is column ``i``'s ``generate_state(4, uint64)``.  Each hash step
    runs on whole rows of ``n`` values, so a step costs one short
    contiguous loop however many SeedSequences share it.  The hash's
    constants are built once per entropy length.
    """
    length = entropy.shape[0]
    consts = _const_chain(_INIT_A, _MULT_A, _POOL_SIZE * length + 1)[:, None]
    used = 0

    def hashmix(values: np.ndarray, count: int) -> np.ndarray:
        # ``count`` successive hashmix calls, one per row
        nonlocal used
        values = (values ^ consts[used : used + count]) * consts[used + 1 : used + count + 1]
        used += count
        return values ^ (values >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        return out ^ (out >> 16)

    pool = hashmix(entropy[:_POOL_SIZE], _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], len(dst)))
    for src in range(_POOL_SIZE, length):
        pool = mix(pool, hashmix(entropy[src], _POOL_SIZE))
    consts = _const_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)[:, None]
    words = (np.concatenate([pool, pool]) ^ consts[:-1]) * consts[1:]
    words = (words ^ (words >> 16)).astype(np.uint64)
    return (words[0::2] | (words[1::2] << np.uint64(32))).T


class _SeedStates(np.random.bit_generator.ISeedSequence):
    """Precomputed PCG64 seed words, one row for each generator built on this sequence in turn."""

    def __init__(self, states: np.ndarray) -> None:
        self._rows = iter(states)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only PCG64's generate_state(4, np.uint64) is precomputed")
        return next(self._rows)


def spawn_states(entropies, children: int) -> np.ndarray:
    """PCG64 seed words of each child of ``SeedSequence(entropy).spawn(children)``.

    One ``(children, 4)`` uint64 block per tuple of non-negative integers in
    ``entropies``, stacked to ``(len(entropies), children, 4)``: bit for bit
    what numpy's own SeedSequence would give, but from one vectorized pass
    of its hash over every (entropy, child) pair instead of one
    SeedSequence object per pair.  :func:`seeded_generators` turns the
    children's words into generators.
    """
    states = np.empty((len(entropies), children, 4), dtype=np.uint64)
    for rows, run in _entropy_runs(entropies):
        length = run.shape[1]
        # a spawned child pads its parent's entropy to the pool size, then
        # appends its spawn key
        entropy = np.zeros((max(length, _POOL_SIZE) + 1, len(rows), children), dtype=np.uint32)
        entropy[:length] = run.T[:, :, None]
        entropy[-1] = np.arange(children)
        states[rows] = _seed_states(entropy.reshape(len(entropy), -1)).reshape(
            len(rows), children, 4
        )
    return states


def seeded_generators(states: np.ndarray) -> list[np.random.Generator]:
    """``default_rng`` of each SeedSequence whose PCG64 seed words are a row of ``states``.

    ``states`` is ``(T, 4)``.  The generators share one seed sequence that
    hands each its row, so a generator costs one PCG64 and nothing more.
    """
    seeds = _SeedStates(states)
    return [np.random.Generator(np.random.PCG64(seeds)) for _ in range(len(states))]
