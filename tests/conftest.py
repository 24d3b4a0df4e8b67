import socket
from dataclasses import dataclass

import numpy as np
import pytest

from hselab.bases import BasisSet, qubit_six_state_set, qutrit_complete_set
from hselab.errors import DimensionError, InvalidParameter, NumericalError
from hselab.hilbert import TAU_NORM, Basis, born_sample, transition_matrix
from hselab.protocol import ALICE, BOB, EVE
from hselab.rates import _survival
from hselab.rng import RandomStream


@pytest.fixture(scope="session")
def sixstate():
    return qubit_six_state_set()


@pytest.fixture(scope="session")
def qutrit4():
    return qutrit_complete_set()


def overlap(u, v) -> complex:
    """Oracle: the inner product <u|v> = sum_k conj(u_k) v_k of two
    StateVectors, one pair at a time."""
    if u.dim != v.dim:
        raise DimensionError(f"dimension mismatch: {u.dim} vs {v.dim}")
    return complex(np.vdot(u.amps, v.amps))


def transition_prob(u, v) -> float:
    """Oracle: |<u|v>|^2 of two StateVectors, clamped to [0, 1].  Values
    within TAU_NORM outside [0, 1] are rounding noise and clamp; anything
    further out means a corrupt input and raises NumericalError."""
    amp = overlap(u, v)
    p = amp.real * amp.real + amp.imag * amp.imag
    if not -TAU_NORM <= p <= 1.0 + TAU_NORM:
        raise NumericalError(f"probability {p} outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


@dataclass(frozen=True)
class UnbiasednessReport:
    ok: bool
    max_dev: float


def is_mutually_unbiased(b1, b2, tol: float) -> UnbiasednessReport:
    """Oracle: max_ij | |<v_i|w_j>|^2 - 1/d | <= tol for one pair of
    bases, from the pair's own Gram product."""
    if b1.dim != b2.dim:
        raise DimensionError(f"dimension mismatch: {b1.dim} vs {b2.dim}")
    if tol <= 0:
        raise InvalidParameter("tolerance must be positive")
    dev = float(np.max(np.abs(transition_matrix(b1, b2) - 1.0 / b1.dim)))
    return UnbiasednessReport(ok=dev <= tol, max_dev=dev)


def success_rate_einsum(basis_set) -> float:
    """Oracle: the no-Eve success rate with every pair's index-miss chance
    taken from one (c, c, d) einsum over the stacked bases."""
    c = basis_set.c
    # same[x, y, i] = <v_i^y | v_i^x>; miss[x, y] = P(b != a | Alice basis
    # x, Bob basis y), averaged over a.  miss[x, x] = 0, so only the tuples
    # leaving out x survive (E1)
    stacked = np.stack([basis.matrix for basis in basis_set.bases])
    same = np.einsum("yki,xki->xyi", stacked.conj(), stacked)
    miss = 1.0 - (same.real**2 + same.imag**2).mean(axis=2)
    e1, _ = _survival(miss)
    return float(e1.sum() / c**2)


def amub_iter_lower_bound(d: int, big_k: float) -> float:
    """Lower bound on the index error rate for d^2 approximately mutually
    unbiased bases with cross-overlap (2 + K d^-0.1)/sqrt(d); clamped at 0
    where the bound is vacuous."""
    if d < 2:
        raise InvalidParameter("dimension must be >= 2")
    if big_k < 0:
        raise InvalidParameter("the overlap constant must be nonnegative")
    bracket = d + (d**2 - 1) * (2.0 + big_k * d ** (-0.1)) ** 4
    return max(0.0, 1.0 - bracket / d**3)


def make_random_basis(d, seed, label="random"):
    """Haar-random orthonormal basis (QR of a complex Gaussian matrix)."""
    rng = RandomStream(seed, "test-basis")
    u1 = np.array([rng.uniform() for _ in range(d * d)]).reshape(d, d)
    u2 = np.array([rng.uniform() for _ in range(d * d)]).reshape(d, d)
    u1 = np.clip(u1, 1e-300, None)
    gauss = np.sqrt(-2.0 * np.log(u1)) * np.exp(2j * np.pi * u2)
    q, r = np.linalg.qr(gauss)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return Basis(label, q)


def make_random_set(d, c, seed):
    return BasisSet(make_random_basis(d, seed * 1000 + j, label=f"r{j}") for j in range(c))


def bkb01_round(basis_set, eve, t, seed):
    """Oracle: round t of BKB01, one scalar draw at a time, as (sifted,
    wrong).  Alice draws her basis g and index x, Eve (when set) measures
    the state and resends her eigenstate, and Bob draws his basis h and
    measures in it; a sifted round (h == g) is wrong when his outcome is
    not x."""
    alice = RandomStream(seed, ALICE, t)
    g = alice.randint(basis_set.c)
    x = alice.randint(basis_set.d)
    state = basis_set.bases[g].vectors[x]
    if eve is not None:
        state = eve.vectors[born_sample(state, eve, RandomStream(seed, EVE, t))]
    bob = RandomStream(seed, BOB, t)
    h = bob.randint(basis_set.c)
    outcome = born_sample(state, basis_set.bases[h], bob)
    return h == g, h == g and outcome != x


def freq_tolerance(p, n, sigmas=4.0):
    """Allowed deviation of an empirical frequency from p over n samples."""
    return sigmas * np.sqrt(p * (1.0 - p) / n)


def free_port():
    """A loopback port that nothing listened on a moment ago."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]
