"""Finite-dimensional complex state vectors and projective measurement.

Everything downstream (basis families, rate formulas, the protocol
simulator) reduces to three primitives defined here: inner products,
transition probabilities, and Born-rule sampling in an orthonormal basis.
All quantities are double precision; TAU_NORM separates rounding noise
from genuine invariant violations.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidParameter, NumericalError
from .rng import RandomStream, scaled_index

TAU_NORM = 1e-10


def _as_complex_vector(amps) -> np.ndarray:
    arr = np.asarray(amps, dtype=np.complex128)
    if arr.ndim != 1:
        raise InvalidParameter(f"state vector must be 1-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """A unit vector in C^d, validated at construction.

    Immutable: the amplitude array is frozen and safe to share.
    """

    amps: np.ndarray

    def __init__(self, amps):
        arr = _as_complex_vector(amps)
        if arr.shape[0] < 2:
            raise InvalidParameter("state vectors need dimension >= 2")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameter("state vector amplitudes must be finite")
        norm_sq = float(np.sum(arr.real**2 + arr.imag**2))
        if abs(norm_sq - 1.0) > TAU_NORM:
            raise InvalidParameter(f"state vector not normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "amps", arr)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def pairs(self) -> tuple:
        """The amplitudes as ((re, im), ...) Python floats, the form the
        wire codec carries and BornTable keys on."""
        return tuple((float(z.real), float(z.imag)) for z in self.amps)


@dataclass(frozen=True, eq=False)
class Basis:
    """An orthonormal basis of C^d, stored column-wise.

    `matrix` has the basis vectors as columns; `vectors` views them as
    StateVector objects.  Construction verifies pairwise orthonormality
    at TAU_NORM unless `validate=False` (reserved for callers that have
    already checked, or for tests that need a deliberately broken basis).
    """

    label: str
    matrix: np.ndarray
    vectors: tuple = field(repr=False)

    def __init__(self, label: str, matrix, validate: bool = True):
        arr = np.asarray(matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidParameter(f"basis matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise InvalidParameter("bases need dimension >= 2")
        if validate:
            report = verify_orthonormal(arr, TAU_NORM)
            if not report.ok:
                raise InvalidParameter(
                    f"basis {label!r} not orthonormal: max deviation {report.max_deviation:.3e}"
                )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "matrix", arr)
        vectors = tuple(StateVector.__new__(StateVector) for _ in range(arr.shape[1]))
        for j, vec in enumerate(vectors):
            col = arr[:, j].copy()
            col.flags.writeable = False
            object.__setattr__(vec, "amps", col)
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def relabeled(self, label: str) -> "Basis":
        return Basis(label, self.matrix, validate=False)


@dataclass(frozen=True)
class OrthonormalityReport:
    ok: bool
    max_deviation: float


def overlap(u: StateVector, v: StateVector) -> complex:
    """Inner product <u|v> = sum_k conj(u_k) v_k."""
    if u.dim != v.dim:
        raise DimensionError(f"dimension mismatch: {u.dim} vs {v.dim}")
    return complex(np.vdot(u.amps, v.amps))


def transition_prob(u: StateVector, v: StateVector) -> float:
    """|<u|v>|^2, clamped to [0, 1].

    Values within TAU_NORM outside [0, 1] are rounding noise and clamp;
    anything further out means a corrupt input and raises NumericalError.
    """
    amp = overlap(u, v)
    p = amp.real * amp.real + amp.imag * amp.imag
    return _clamp_probability(p)


def _clamp_probability(p: float) -> float:
    if p < 0.0:
        if p < -TAU_NORM:
            raise NumericalError(f"probability {p} below 0 beyond tolerance")
        return 0.0
    if p > 1.0:
        if p > 1.0 + TAU_NORM:
            raise NumericalError(f"probability {p} above 1 beyond tolerance")
        return 1.0
    return p


def born_probabilities(basis: Basis, state: StateVector) -> np.ndarray:
    """Outcome distribution of measuring `state` in `basis` (renormalized).

    Raises NumericalError if the raw probabilities miss unit total by more
    than dim * TAU_NORM, which signals a corrupt basis or state rather
    than accumulated rounding.
    """
    if basis.dim != state.dim:
        raise DimensionError(f"dimension mismatch: basis {basis.dim} vs state {state.dim}")
    amps = basis.matrix.conj().T @ state.amps
    probs = amps.real**2 + amps.imag**2
    total = float(probs.sum())
    if abs(total - 1.0) > basis.dim * TAU_NORM:
        raise NumericalError(f"outcome probabilities sum to {total!r}, not 1")
    return probs / total


def born_sample(state: StateVector, basis: Basis, rng: RandomStream) -> int:
    """Sample a measurement outcome index (0..d-1) by the Born rule.

    One uniform draw per measurement, inverted through the cumulative
    distribution in ascending index order, so results are reproducible
    given the stream state.
    """
    probs = born_probabilities(basis, state)
    return sample_from_probs(probs, rng.uniform())


def sample_from_probs(probs: np.ndarray, u: float) -> int:
    """Invert the CDF of `probs` at u; shared by scalar and batch paths."""
    return invert_cdf(np.cumsum(probs).tolist(), u)


def invert_cdf(cdf: list, u: float) -> int:
    """The outcome for uniform draw u: the count of cdf entries <= u,
    capped at the last index (the cdf may end a rounding step below 1)."""
    return min(bisect_right(cdf, u), len(cdf) - 1)


class BornTable:
    """Cumulative Born rows of wire states in a fixed tuple of bases.

    A state is keyed by its exact ((re, im), ...) amplitude pairs, as
    `channel.decode` returns them.  The first time a (state, basis) pair
    is seen, its row is computed as `born_sample` computes it - a
    validated StateVector, then the cumsum of `born_probabilities` - so
    sampling a row gives the same outcome `born_sample` gives on the same
    draw.  At most `capacity` states are stored; past that, each new state
    is computed and not kept, so a peer sending endless distinct states
    cannot grow the table.
    """

    def __init__(self, bases, capacity: int):
        self.bases = tuple(bases)
        self.capacity = capacity
        self._entries: dict = {}  # pairs -> (StateVector, [cdf row per basis, or None])

    def __len__(self) -> int:
        return len(self._entries)

    def sample(self, pairs: tuple, which: int, u: float) -> int:
        """Outcome of measuring the state `pairs` in `bases[which]` for
        uniform draw u."""
        entry = self._entries.get(pairs)
        if entry is None:
            entry = (StateVector([complex(re, im) for re, im in pairs]), [None] * len(self.bases))
            if len(self._entries) < self.capacity:
                self._entries[pairs] = entry
        state, rows = entry
        cdf = rows[which]
        if cdf is None:
            cdf = rows[which] = np.cumsum(born_probabilities(self.bases[which], state)).tolist()
        return invert_cdf(cdf, u)


def verify_orthonormal(basis, tol: float) -> OrthonormalityReport:
    """Check max_ij |<v_i|v_j> - delta_ij| <= tol.

    Accepts a Basis or a raw (d x d) matrix with vectors as columns, so
    candidate matrices can be screened before constructing a Basis.
    """
    if tol <= 0:
        raise InvalidParameter("tolerance must be positive")
    matrix = basis.matrix if isinstance(basis, Basis) else np.asarray(basis, dtype=np.complex128)
    gram = matrix.conj().T @ matrix
    deviation = float(np.max(np.abs(gram - np.eye(matrix.shape[1]))))
    return OrthonormalityReport(ok=deviation <= tol, max_deviation=deviation)
