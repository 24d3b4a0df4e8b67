"""Finite-dimensional complex state vectors and projective measurement.

Everything downstream (basis families, rate formulas, the protocol
simulator) reduces to the primitives defined here: the transition
probabilities between every vector of two bases (`transition_matrix`),
and Born-rule sampling in an orthonormal basis.  The one-pair inner
product and transition probability are test oracles and live in the
tests.
All quantities are double precision; TAU_NORM separates rounding noise
from genuine invariant violations.

Every Born row comes from one kernel, `born_rows`: `born_probabilities`
is its one-row case, and `BornTable`, the batch sampler's tensors
(`montecarlo`) and the session endpoints all read rows it computed.  Row r
is the vector-matrix product amps[r] @ basis.conj, and numpy runs the same
per-row routine however many rows it is given, so a row's floats do not
depend on how many rows are computed together; the batch sampler therefore
inverts exactly the floats `born_sample` inverts.  (`rates` and `bases`
read Gram products from `transition_matrix` instead: their floats are
pinned by the golden reports.)
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidParameter, NumericalError
from .rng import RandomStream

TAU_NORM = 1e-10


def _as_complex_vector(amps) -> np.ndarray:
    arr = np.asarray(amps, dtype=np.complex128)
    if arr.ndim != 1:
        raise InvalidParameter(f"state vector must be 1-D, got shape {arr.shape}")
    return arr


def check_unit_norm(squares) -> None:
    """The normalization check of every state: its squared amplitude
    magnitudes must sum to 1 within TAU_NORM, else InvalidParameter.  The
    sum is exactly rounded (math.fsum), so callers that compute the terms
    as re*re + im*im agree whatever order they list them in."""
    norm_sq = math.fsum(squares)
    if abs(norm_sq - 1.0) > TAU_NORM:
        raise InvalidParameter(f"state vector not normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")


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
        check_unit_norm((arr.real**2 + arr.imag**2).tolist())
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "amps", arr)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def pairs(self) -> tuple:
        """The amplitudes as ((re, im), ...) Python floats, the form the
        wire codec carries and BornTable keys on.  Made on the first call
        and the same tuple after it, so two tables keyed on a state's pairs
        find each other's keys by identity, without comparing floats."""
        try:
            return self.__dict__["_pairs"]
        except KeyError:
            pairs = tuple(zip(self.amps.real.tolist(), self.amps.imag.tolist()))
            object.__setattr__(self, "_pairs", pairs)
            return pairs


@dataclass(frozen=True, eq=False)
class Basis:
    """An orthonormal basis of C^d, stored column-wise.

    `matrix` has the basis vectors as columns; `vectors` views them as
    StateVector objects, and `conj` is the conjugated matrix that
    `born_rows` multiplies by.  Construction verifies pairwise orthonormality
    at TAU_NORM unless `validate=False` (reserved for callers that have
    already checked, or for tests that need a deliberately broken basis).
    """

    label: str
    matrix: np.ndarray
    vectors: tuple = field(repr=False)
    conj: np.ndarray = field(repr=False)

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
        conj = arr.conj()
        conj.flags.writeable = False
        object.__setattr__(self, "conj", conj)
        vectors = tuple(StateVector.__new__(StateVector) for _ in range(arr.shape[1]))
        for j, vec in enumerate(vectors):
            col = arr[:, j].copy()
            col.flags.writeable = False
            object.__setattr__(vec, "amps", col)
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class OrthonormalityReport:
    ok: bool
    max_deviation: float


def transition_matrix(b1: Basis, b2: Basis) -> np.ndarray:
    """M[i, k] = |<v_i^1 | v_k^2>|^2 for every vector of b1 and of b2."""
    if b1.dim != b2.dim:
        raise DimensionError(f"dimension mismatch: {b1.dim} vs {b2.dim}")
    gram = b1.matrix.conj().T @ b2.matrix
    return gram.real**2 + gram.imag**2


def born_rows(basis: Basis, amps) -> np.ndarray:
    """Outcome distributions (renormalized) of measuring each row of the
    (n, d) amplitudes `amps` in `basis`, as an (n, d) array.

    Row r is amps[r] @ basis.conj, computed for all rows as one stacked
    product; numpy runs the same vector-matrix routine for each row of a
    stack as for a lone vector, so row r's floats are the same whatever
    rows come with it.  Raises NumericalError if any row's raw
    probabilities miss unit total by more than dim * TAU_NORM, which
    signals a corrupt basis or state rather than accumulated rounding.
    """
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    if amps.ndim != 2 or amps.shape[1] != basis.dim:
        raise DimensionError(f"dimension mismatch: basis {basis.dim} vs amplitude rows {amps.shape}")
    products = (amps[:, None, :] @ basis.conj)[:, 0, :]
    probs = products.real**2 + products.imag**2
    totals = probs.sum(axis=1, keepdims=True)
    corrupt = np.abs(totals - 1.0) > basis.dim * TAU_NORM
    if corrupt.any():
        raise NumericalError(f"outcome probabilities sum to {float(totals[corrupt][0])!r}, not 1")
    probs /= totals
    return probs


def born_probabilities(basis: Basis, state: StateVector) -> np.ndarray:
    """Outcome distribution of measuring `state` in `basis`: the one-row
    case of `born_rows`, amps @ basis.conj, with the same renormalization
    and NumericalError, and the same floats (tested bit for bit).  Written
    out for one vector because the stacking and per-row checks of
    `born_rows` would double the cost of a lone row."""
    if basis.dim != state.dim:
        raise DimensionError(f"dimension mismatch: basis {basis.dim} vs state {state.dim}")
    amps = state.amps @ basis.conj
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
    return invert_cdf(np.cumsum(born_probabilities(basis, state)).tolist(), rng.uniform())


def invert_cdf(cdf: list, u: float) -> int:
    """The outcome for uniform draw u: the count of cdf entries <= u,
    capped at the last index (the cdf may end a rounding step below 1)."""
    return min(bisect_right(cdf, u), len(cdf) - 1)


class BornTable:
    """Cumulative Born rows of wire states in a fixed tuple of bases.

    A state is keyed by its exact ((re, im), ...) amplitude pairs, as
    `channel.decode` returns them.  The table holds exactly the `states`
    given at construction, whose rows are built then, one `born_rows` call
    per basis, and it never changes after that.  Any other state is
    measured one-off and not kept: a validated StateVector, whose row is
    the cumsum of `born_probabilities`, the kernel's one-row case, with the
    same floats.  Either way sampling a row gives the outcome `born_sample`
    gives on the same draw, and no peer can grow the table.

    The rows of each basis are kept end to end in one flat list of floats,
    d entries per state, so a table holds a few containers however many
    rows it has.
    """

    def __init__(self, bases, states=()):
        self.bases = tuple(bases)
        self._dim = self.bases[0].dim
        self._rows: dict = {}  # pairs -> where the state's row starts in every flat list
        self._cdfs = [[] for _ in self.bases]  # per basis: each state's cdf row, end to end
        if states:
            amps = [state.amps for state in states]
            for cdfs, basis in zip(self._cdfs, self.bases):
                cdfs.extend(np.cumsum(born_rows(basis, amps), axis=1).ravel().tolist())
            self._rows.update((state.pairs(), row * self._dim) for row, state in enumerate(states))

    def sample(self, pairs: tuple, which: int, u: float) -> int:
        """Outcome of measuring the state `pairs` in `bases[which]` for
        uniform draw u."""
        start = self._rows.get(pairs)
        if start is None:
            state = StateVector([complex(re, im) for re, im in pairs])
            return invert_cdf(np.cumsum(born_probabilities(self.bases[which], state)).tolist(), u)
        # the count of the row's first d-1 entries <= u: a cdf never falls,
        # so that is the count of all d capped at d-1, as invert_cdf caps it
        return bisect_right(self._cdfs[which], u, start, start + self._dim - 1) - start


def verify_orthonormal(basis, tol: float) -> OrthonormalityReport:
    """Check max_ij |<v_i|v_j> - delta_ij| <= tol.

    Accepts a Basis or a raw (d x d) matrix with vectors as columns, so
    candidate matrices can be screened before constructing a Basis.
    """
    if not tol > 0:  # NaN too
        raise InvalidParameter("tolerance must be positive")
    matrix = basis.matrix if isinstance(basis, Basis) else np.asarray(basis, dtype=np.complex128)
    gram = matrix.conj().T @ matrix
    deviation = float(np.max(np.abs(gram - np.eye(matrix.shape[1]))))
    return OrthonormalityReport(ok=deviation <= tol, max_deviation=deviation)
