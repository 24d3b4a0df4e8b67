"""Basis families for alphabet encoding, and distances between bases.

Provides the concrete constructions the protocol analysis relies on
(standard, Fourier, the qutrit 4-basis complete set, the qubit six-state
triple, quadratic-phase complete sets in odd prime dimension, a frozen
complete set for d=4, the Breidbart basis) plus the squared chordal
Grassmannian distance D^2 that ties basis geometry to the index error
rate: `average_distance` from an Eve basis to a set is that rate under
intercept-and-resend.  `squared_distance` is the one statement of D^2,
from a pair's transition matrix.

A BasisSet keeps four figures per pair from one Gram product: the
largest transition probability, the largest deviation from
unbiasedness, the no-Eve index-miss chance and D^2.  The distinctness
check, the MU gate, `bases verify`, `bases distance` and
`rates.success_rate` read those figures.

`named_basis_set` is the one resolver of the built-in names (mub, prime,
fourier, sixstate, qutrit4) at a given (d, c); it never opens a file.
The named constructions are memoised with `functools.cache`, so each set
is built and validated once per process, not once per relayed session
(the relay starts each session from the set its Hello names):
`mu_basis_set`, `prime_complete_set`, `qubit_six_state_set`,
`qutrit_complete_set` and the standard + Fourier pair.  Sharing one
set is safe because a BasisSet is frozen and every Basis keeps its
arrays read-only.  A (d, c) that a construction refuses raises each
time, as exceptions are not cached, and the valid keys are few per d
(c <= d+1), so the memo stays small.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, DimensionError, InvalidParameter
from .hilbert import Basis, transition_matrix

TAU_DISTINCT = 1e-6


@dataclass(frozen=True, eq=False)
class BasisSet:
    """An ordered family of c bases of C^d encoding a c-letter alphabet.

    Members are relabeled "B0".."B{c-1}" through a validating Basis, so
    each is checked orthonormal.  Then one pass over the pairs x < y takes
    one `transition_matrix` p each and keeps four read-only (c, c) arrays,
    symmetric with a zero diagonal: `max_transition[x, y]`, the pair's
    largest p; `mu_deviation[x, y]`, its largest |p - 1/d|; `miss[x, y]`
    = 1 - mean_i p_ii, the chance that Bob, measuring in y, reads another
    index than Alice sent in x; and `distance[x, y]`, the pair's squared
    distance D^2 = 1 - sum p^2 / d.  No two bases may share a state: every
    max_transition stays below 1 - TAU_DISTINCT.  The MU gate of
    `prime_complete_set`, `hselab bases verify` and `distance`,
    `max_cross_overlap` and `rates.success_rate` read these arrays, not
    the bases.
    """

    c: int
    d: int
    bases: tuple
    max_transition: np.ndarray = field(repr=False)
    mu_deviation: np.ndarray = field(repr=False)
    miss: np.ndarray = field(repr=False)
    distance: np.ndarray = field(repr=False)

    def __init__(self, bases):
        bases = tuple(bases)
        if len(bases) < 2:
            raise InvalidParameter("a basis set needs at least 2 bases")
        d = bases[0].dim
        if any(b.dim != d for b in bases):
            raise DimensionError("all bases in a set must share one dimension")
        relabeled = tuple(Basis(f"B{x}", b.matrix) for x, b in enumerate(bases))
        c = len(relabeled)
        peak, deviation, miss, distance = (np.zeros((c, c)) for _ in range(4))
        for x in range(c):
            for y in range(x + 1, c):
                p = transition_matrix(relabeled[x], relabeled[y])
                p_max, p_min = float(p.max()), float(p.min())
                if p_max > 1.0 - TAU_DISTINCT:
                    raise InvalidParameter(f"bases B{x} and B{y} share a state (transition prob {p_max:.9f})")
                peak[x, y] = peak[y, x] = p_max
                # a rounded subtraction is monotone, so this is max |p - 1/d| to the bit
                deviation[x, y] = deviation[y, x] = max(p_max - 1.0 / d, 1.0 / d - p_min)
                miss[x, y] = miss[y, x] = 1.0 - p.diagonal().sum() / d
                distance[x, y] = distance[y, x] = squared_distance(p)
        for figures in (peak, deviation, miss, distance):
            figures.flags.writeable = False
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "bases", relabeled)
        object.__setattr__(self, "max_transition", peak)
        object.__setattr__(self, "mu_deviation", deviation)
        object.__setattr__(self, "miss", miss)
        object.__setattr__(self, "distance", distance)


def standard_basis(d: int) -> Basis:
    """The computational basis: columns of the d x d identity."""
    if d < 2:
        raise InvalidParameter("dimension must be >= 2")
    return Basis(f"standard({d})", np.eye(d, dtype=np.complex128), validate=False)


def fourier_basis(d: int) -> Basis:
    """The discrete Fourier basis: entries omega^(jk)/sqrt(d).

    Mutually unbiased to the standard basis in every dimension, including
    composite ones, since all entries have modulus 1/sqrt(d).
    """
    if d < 2:
        raise InvalidParameter("dimension must be >= 2")
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    matrix = np.exp(2j * np.pi * j * k / d) / math.sqrt(d)
    return Basis(f"fourier({d})", matrix)


@functools.cache
def qutrit_complete_set() -> BasisSet:
    """The complete set of four mutually unbiased qutrit bases.

    Exact matrices, column-ordered; members are the standard basis, the
    Fourier basis, and its two quadratic-phase companions.
    """
    w = cmath.exp(2j * cmath.pi / 3)
    s = 1 / math.sqrt(3)
    b0 = np.eye(3, dtype=np.complex128)
    b1 = s * np.array([[1, 1, 1], [1, w, w**2], [1, w**2, w]])
    b2 = s * np.array([[1, 1, 1], [w**2, 1, w], [w**2, w, 1]])
    b3 = s * np.array([[1, 1, 1], [w, w**2, 1], [w, 1, w**2]])
    return BasisSet(Basis(f"q{i}", m) for i, m in enumerate((b0, b1, b2, b3)))


@functools.cache
def qubit_six_state_set() -> BasisSet:
    """The three mutually unbiased qubit bases (six-state protocol states).

    Z eigenstates, X eigenstates (Hadamard), and Y eigenstates, in that
    order; on the Bloch sphere these are the six points (0,0,±1),
    (±1,0,0), (0,±1,0).
    """
    s = 1 / math.sqrt(2)
    b0 = np.eye(2, dtype=np.complex128)
    b1 = s * np.array([[1, 1], [1, -1]], dtype=np.complex128)
    b2 = s * np.array([[1, 1], [1j, -1j]], dtype=np.complex128)
    return BasisSet(Basis(f"s{i}", m) for i, m in enumerate((b0, b1, b2)))


@functools.cache
def prime_complete_set(d: int, c: int) -> BasisSet:
    """c pairwise-MU bases in odd prime dimension d (2 <= c <= d+1).

    The standard basis plus quadratic-phase bases: family member a has
    vectors v_j with components omega^(a k^2 + j k)/sqrt(d).  The result
    is gated before being returned: every pair's `mu_deviation` must be
    at most 1e-10, so the particular family is not load-bearing.
    """
    if not _is_odd_prime(d):
        raise InvalidParameter(f"dimension {d} is not an odd prime")
    if not 2 <= c <= d + 1:
        raise InvalidParameter(f"need 2 <= c <= d+1 = {d + 1}, got c = {c}")
    members = [standard_basis(d)]
    k = np.arange(d)
    for a in range(c - 1):
        phases = (a * k[None, :] ** 2 + k[:, None] * k[None, :]) % d
        matrix = np.exp(2j * np.pi * phases / d).T / math.sqrt(d)
        members.append(Basis(f"quad({d},{a})", matrix, validate=False))  # BasisSet validates
    basis_set = BasisSet(members)
    failing = np.argwhere(np.triu(basis_set.mu_deviation > 1e-10))
    if len(failing):
        i, j = failing[0].tolist()
        raise ConstructionError(
            f"bases {i} and {j} of prime_complete_set({d},{c}) "
            f"not mutually unbiased: {basis_set.mu_deviation[i, j]:.3e}"
        )
    return basis_set


# Complete MU set for d=4 (not covered by the odd-prime family): common
# eigenbases of the five commuting two-qubit Pauli classes.  Entries are
# exactly 0, ±1/2, ±i/2; pairwise unbiasedness deviation is exactly 0.
_D4_ROWS = {
    "h": (1, 1, 1, 1),
    "a": (1, 1, -1, -1),
    "b": (1, -1, 1, -1),
    "c": (1, -1, -1, 1),
    "p": (1j, -1j, 1j, -1j),
    "q": (-1j, 1j, 1j, -1j),
}
_D4_LAYOUT = (("h", "a", "b", "c"), ("h", "p", "q", "a"), ("h", "a", "p", "q"), ("h", "p", "a", "q"))


def _d4_complete_set(c: int) -> BasisSet:
    if not 2 <= c <= 5:
        raise InvalidParameter(f"need 2 <= c <= 5 for d=4, got c = {c}")
    members = [standard_basis(4)]
    for i, rows in enumerate(_D4_LAYOUT):
        matrix = 0.5 * np.array([_D4_ROWS[r] for r in rows], dtype=np.complex128)
        members.append(Basis(f"pauli4({i})", matrix))
    return BasisSet(members[:c])


@functools.cache
def mu_basis_set(d: int, c: int) -> BasisSet:
    """c mutually unbiased bases in dimension d, from the best-known family.

    Covers d = 2 and 3 (canonical small sets), d = 4 (frozen Pauli-class
    set), odd primes (quadratic family).  Other dimensions only support
    c = 2 via {standard, Fourier}.
    """
    if d < 2 or c < 2:
        raise InvalidParameter("need d >= 2 and c >= 2")
    if d == 2:
        if c > 3:
            raise InvalidParameter("dimension 2 has at most 3 MU bases")
        return BasisSet(qubit_six_state_set().bases[:c])
    if d == 3:
        if c > 4:
            raise InvalidParameter("dimension 3 has at most 4 MU bases")
        return BasisSet(qutrit_complete_set().bases[:c])
    if d == 4:
        return _d4_complete_set(c)
    if _is_odd_prime(d):
        return prime_complete_set(d, c)
    if c == 2:
        return _fourier_pair(d)
    raise InvalidParameter(f"no construction for {c} MU bases in dimension {d}")


@functools.cache
def _fourier_pair(d: int) -> BasisSet:
    return BasisSet([standard_basis(d), fourier_basis(d)])


def named_basis_set(name: str, d: int | None = None, c: int | None = None) -> BasisSet:
    """The built-in basis set `name` at dimension d and alphabet size c.

    mub needs d and c; prime needs d, and c defaults to d+1; fourier needs
    d and is always the c = 2 pair; sixstate (2,3) and qutrit4 (3,4) have
    fixed sizes and read neither.  So the set may be of another size than
    (d, c): a caller that runs at a size compares.  Any other name, a
    missing d or c, or a (d, c) the construction refuses raises
    InvalidParameter or ConstructionError.
    """
    if name == "sixstate":
        return qubit_six_state_set()
    if name == "qutrit4":
        return qutrit_complete_set()
    if name == "mub" and d is not None and c is not None:
        return mu_basis_set(d, c)
    if name == "prime" and d is not None:
        return prime_complete_set(d, d + 1 if c is None else c)
    if name == "fourier" and d is not None:
        return _fourier_pair(d)
    if name in ("mub", "prime", "fourier"):
        raise InvalidParameter(f"the {name} set needs {'d and c' if name == 'mub' else 'd'}")
    raise InvalidParameter(f"unknown basis set {name!r}")


def breidbart_basis() -> Basis:
    """The qubit basis halfway between the standard and Hadamard bases.

    Rotation by pi/8: equidistant (D^2 = 1/4) from both.
    """
    t = math.pi / 8
    matrix = np.array(
        [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]], dtype=np.complex128
    )
    return Basis("breidbart", matrix, validate=False)


def squared_distance(p: np.ndarray) -> float:
    """D^2 = 1 - (1/d) sum_ij p_ij^2 of two bases whose (d, d) transition
    matrix is p, with p_ij = |<v_i|w_j>|^2."""
    return 1.0 - float(np.sum(p**2)) / p.shape[0]


def grassmannian_distance(b1: Basis, b2: Basis) -> float:
    """Squared chordal Grassmannian distance between two basis planes.

    D^2 = 1 - (1/d) sum_ij |<v_i|w_j>|^4.  Bounded by [0, 1 - 1/d]; zero
    for identical planes, maximal exactly for mutually unbiased bases.
    """
    if b1.dim != b2.dim:
        raise DimensionError(f"dimension mismatch: {b1.dim} vs {b2.dim}")
    return squared_distance(transition_matrix(b1, b2))


def average_distance(eve: Basis, basis_set: BasisSet) -> float:
    """Mean squared distance from an Eve basis to each member of a set.
    Equal to the index transmission error rate of an intercept-and-resend
    attack in `eve`."""
    return sum(grassmannian_distance(b, eve) for b in basis_set.bases) / basis_set.c


def max_cross_overlap(basis_set: BasisSet) -> float:
    """Largest |<v_i^x|v_j^y>| over distinct bases x != y of a set."""
    return math.sqrt(float(basis_set.max_transition.max()))


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    return all(n % k for k in range(3, int(math.isqrt(n)) + 1, 2))


def save_basis_set(basis_set: BasisSet, path) -> None:
    """Write a basis set to the JSON interchange format."""
    doc = {
        "d": basis_set.d,
        "c": basis_set.c,
        "bases": [
            {
                "label": b.label,
                "vectors": [
                    [[float(a.real), float(a.imag)] for a in b.matrix[:, j]]
                    for j in range(basis_set.d)
                ],
            }
            for b in basis_set.bases
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_basis_set(path) -> BasisSet:
    """Read a basis set from the JSON interchange format.

    All BasisSet invariants (orthonormality, no shared states, c >= 2)
    are enforced; violations raise InvalidParameter.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidParameter(f"cannot read basis-set file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidParameter(f"not a valid basis-set file: {exc}") from exc
    try:
        d, c, entries = doc["d"], doc["c"], doc["bases"]
    except (KeyError, TypeError) as exc:
        raise InvalidParameter(f"basis-set file has a missing or malformed field: {exc}") from exc
    if not all(type(n) is int for n in (d, c)):
        raise InvalidParameter(f"basis-set file's d and c must be integers, got {d!r} and {c!r}")
    if not isinstance(entries, list):
        raise InvalidParameter("basis-set file's bases must be a list")
    if len(entries) != c:
        raise InvalidParameter(f"file declares c = {c} but lists {len(entries)} bases")
    members = []
    for x, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InvalidParameter(f"basis {x} must be an object")
        vectors = entry.get("vectors")
        if not isinstance(vectors, list) or len(vectors) != d:
            raise InvalidParameter(f"basis {entry.get('label')!r} must list {d} vectors")
        try:
            matrix = np.array(
                [[complex(re, im) for re, im in vec] for vec in vectors], dtype=np.complex128
            ).T
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameter(f"malformed amplitude pair: {exc}") from exc
        if matrix.shape != (d, d):
            raise InvalidParameter(f"basis {entry.get('label')!r} has wrong vector length")
        members.append(Basis(str(entry.get("label", "?")), matrix))
    return BasisSet(members)
