"""Exact protocol rates: one survival kernel for any basis set, and MUB closed forms.

Every HSE rate averages, over Alice's letter x and Bob's ordered tuples
of c-1 distinct bases, a product of per-slot survival probabilities
A[x, y].  Alice's indices are i.i.d., so the sum over her index tuples
factors into these per-slot means.  A tuple of c-1 distinct letters out
of c leaves out exactly one letter m, and each such set has (c-1)!
orderings, so

    sum over tuples of prod_y A[x, y] = (c-1)! * e_{c-1}(A[x, :])
                                      = (c-1)! * sum_m prod_{y != m} A[x, y],

with e_k the elementary symmetric polynomials.  Splitting on whether m
is x leaves two values per row: E1_x = prod_{y != x} A[x, y] (Bob never
used Alice's basis) and E2_x = sum_z prod_{y != x, z} A[x, y] (he used it
once, in slot A[x, x]).  The key rate, Bob's error rate, the QBER and the
no-Eve success rate are all sums of these, in O(c^2) per set.  With no Eve,
A is the set's stored `BasisSet.miss`; under interception a report takes
each member's Gram product with Eve once, for every rate.  Mutually
unbiased sets also admit closed forms, and both routes are required to
agree.  Also houses the comparison-protocol rates (BB84 / BKB01) and the
12-row comparison table generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .bases import BasisSet, average_distance, squared_distance
from .errors import InvalidParameter
from .hilbert import Basis, transition_matrix


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything needed to run or analyze one protocol instance.

    `eve` is the fixed interception basis (None = no eavesdropper);
    `intercept_fraction` < 1 intercepts each slot independently with that
    probability.
    """

    c: int
    d: int
    basis_set: BasisSet
    eve: Basis | None = None
    intercept_fraction: float = 1.0

    def __post_init__(self):
        if self.basis_set.c != self.c or self.basis_set.d != self.d:
            raise InvalidParameter(
                f"config (c={self.c}, d={self.d}) does not match basis set "
                f"(c={self.basis_set.c}, d={self.basis_set.d})"
            )
        if self.eve is not None and self.eve.dim != self.d:
            raise InvalidParameter(f"Eve basis dimension {self.eve.dim} != {self.d}")
        if not 0.0 <= self.intercept_fraction <= 1.0:
            raise InvalidParameter("intercept_fraction must be in [0, 1]")


@dataclass(frozen=True)
class RateReport:
    """One protocol's exact rates with provenance, as every exact-rate
    builder (rate_report, mub_closed_forms, bkb01_rates) returns them.

    method is "closed_form_mub" (MUB closed forms) or "enumeration" (the
    survival kernel on an explicit basis set).  Fields that do not apply
    to a protocol are None (e.g. no ITER for basis-announcing protocols).
    """

    protocol: str
    d: int
    c: int
    method: str
    r_qb: float | None = None
    r_it: float | None = None
    r_s: float | None = None
    r_t: float | None = None
    r_k: float | None = None
    r_be: float | None = None
    n_s: float | None = None
    note: str = ""


def _index_change_table(towards_eve: np.ndarray) -> np.ndarray:
    """P[x, y, i] = p_i(x, y), the index-change probability through Eve,
    from the stack of each member's `transition_matrix` with Eve."""
    return np.clip(1.0 - np.einsum("xik,yik->xyi", towards_eve, towards_eve), 0.0, 1.0)


def _survival(slot_mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E1[x] = prod_{y != x} A[x, y] and E2[x] = sum_z prod_{y != x, z} A[x, y].

    The leave-one-out products come from prefix and suffix products, so
    nothing is divided and zero entries stay exact.
    """
    c = slot_mean.shape[0]
    off = slot_mean[~np.eye(c, dtype=bool)].reshape(c, c - 1)
    ones = np.ones((c, 1))
    prefix = np.cumprod(np.hstack([ones, off]), axis=1)
    suffix = np.cumprod(np.hstack([ones, off[:, ::-1]]), axis=1)[:, ::-1]
    return prefix[:, -1], (prefix[:, :-1] * suffix[:, 1:]).sum(axis=1)


def success_rate(basis_set: BasisSet) -> float:
    """Probability (no eavesdropper) that one protocol round yields a key
    letter: Bob's bases all miss Alice's and every outcome index differs
    from the announced one: only E1, as miss[x, x] = 0."""
    e1, _ = _survival(basis_set.miss)
    return float(e1.sum() / basis_set.c**2)


def iter_rate(basis_set: BasisSet, eve: Basis) -> float:
    """Index transmission error rate of an intercept-and-resend attack:
    bases.average_distance(eve, set), which rate_report's R_IT equals."""
    return average_distance(eve, basis_set)


def _attack_rates(basis_set: BasisSet, eve: Basis) -> tuple[float, float, float, float]:
    """(R_K, R_BE, R_QB, R_IT) under interception, from one Gram stack.

    R_K averages over all c * c! (letter, tuple) pairs: E1 for the tuples
    that leave out x, A[x, x] E2 for the rest.  R_BE averages over the
    c * (c-1)! tuples that put Alice's basis first, which is the second
    term alone.  R_IT is `average_distance`'s expression, to the bit:
    the mean of `squared_distance` over the stack.
    """
    c = basis_set.c
    towards_eve = np.stack([transition_matrix(b, eve) for b in basis_set.bases])
    # A[x, y] = mean over Alice's index a of p_a(x, y)
    slot_mean = _index_change_table(towards_eve).mean(axis=2)
    e1, e2 = _survival(slot_mean)
    used_x = np.diagonal(slot_mean) * e2
    r_k = float((e1 + used_x).sum() / c**2)
    r_be = float(used_x.sum() / (c * (c - 1)))
    r_it = sum(squared_distance(t) for t in towards_eve) / c
    return r_k, r_be, (c - 1) / c * r_be / r_k, r_it


def key_rate(basis_set: BasisSet, eve: Basis) -> float:
    """Probability a round survives sifting under interception, averaged
    over Alice's letter, her index tuples, and Bob's basis tuples."""
    return _attack_rates(basis_set, eve)[0]


def bob_error_rate(basis_set: BasisSet, eve: Basis) -> float:
    """Probability a round survives sifting given Bob used Alice's basis
    somewhere, averaged over the tuples that put Alice's basis first."""
    return _attack_rates(basis_set, eve)[1]


def qber(basis_set: BasisSet, eve: Basis) -> float:
    """Fraction of sifted key letters that are wrong under interception."""
    return _attack_rates(basis_set, eve)[2]


def rate_report(basis_set: BasisSet, eve: Basis, protocol: str = "hse") -> RateReport:
    """Every exact rate of an explicit basis set under interception in `eve`."""
    c = basis_set.c
    r_k, r_be, r_qb, r_it = _attack_rates(basis_set, eve)
    r_s = success_rate(basis_set)
    r_t = math.log2(c) * r_s
    return RateReport(
        protocol=protocol,
        d=basis_set.d,
        c=c,
        method="enumeration",
        r_qb=r_qb,
        r_it=r_it,
        r_s=r_s,
        r_t=r_t,
        r_k=r_k,
        r_be=r_be,
        n_s=(c - 1) / r_t,
    )


def mub_closed_forms(c: int, d: int) -> RateReport:
    """Closed-form HSE rates under interception in one of the c MU bases.

    For c > d+1 no such set can exist: the numbers are formal, and the
    report's note says so.
    """
    if c < 2 or d < 2:
        raise InvalidParameter("need c >= 2 and d >= 2")
    q = 1.0 - 1.0 / d
    r_s = q ** (c - 1) / c
    r_t = math.log2(c) * r_s
    return RateReport(
        protocol="hse",
        d=d,
        c=c,
        method="closed_form_mub",
        r_qb=(1.0 - 1.0 / c) ** 2 / (1.0 - 1.0 / c + 1.0 / c**2),
        r_it=(c - 1) * (d - 1) / (c * d),
        r_s=r_s,
        r_t=r_t,
        r_k=(1.0 - 1.0 / c + 1.0 / c**2) * q ** (c - 1),
        r_be=(1.0 - 1.0 / c) * q ** (c - 1),
        n_s=(c - 1) / r_t,
        note="c exceeds d+1: no such MU set exists" if c > d + 1 else "",
    )


def bkb01_rates(c: int, d: int) -> RateReport:
    """Rates of the basis-announcing MUB protocol (BB84 is c = d = 2).

    QBER under interception is (c-1)(d-1)/(cd); one state per attempt and
    log2(d) bits per success give r_t = log2(d)/c and n_s = 1/r_t.
    """
    if c < 2 or d < 2:
        raise InvalidParameter("need c >= 2 and d >= 2")
    r_t = math.log2(d) / c
    return RateReport(
        protocol="bkb01",
        d=d,
        c=c,
        method="closed_form_mub",
        r_qb=(c - 1) * (d - 1) / (c * d),
        r_t=r_t,
        n_s=1.0 / r_t,
    )


_FOOT_KMB09_ITER = "ITER from the c=2 closed form (25.0%); optimizing Eve numerically raises it to ~25.5%."
_FOOT_HSE23_NS = "exact value 15.14; per-letter accounting sometimes quoted as 15.2."
_FOOT_OVER_100 = "r_t above 100%: each success shares log2(d) > c bits, so under one state per bit."


def table1() -> list[RateReport]:
    """The 12-row protocol comparison table for d = 2, 3, 7."""
    return [
        replace(bkb01_rates(2, 2), protocol="BB84"),
        replace(mub_closed_forms(2, 2), protocol="KMB09", note=_FOOT_KMB09_ITER),
        replace(bkb01_rates(3, 2), protocol="BKB01 (6-state)"),
        replace(mub_closed_forms(3, 2), protocol="HSE", note=_FOOT_HSE23_NS),
        replace(bkb01_rates(2, 3), protocol="BKB01"),
        replace(mub_closed_forms(2, 3), protocol="KMB09"),
        replace(bkb01_rates(4, 3), protocol="BKB01"),
        replace(mub_closed_forms(4, 3), protocol="HSE"),
        replace(bkb01_rates(2, 7), protocol="BKB01", note=_FOOT_OVER_100),
        replace(mub_closed_forms(2, 7), protocol="KMB09"),
        replace(bkb01_rates(8, 7), protocol="BKB01"),
        replace(mub_closed_forms(8, 7), protocol="HSE"),
    ]


def round_half_up(x: float) -> float:
    """Rounding to one decimal with ties away from zero (display rule).

    The value is first snapped to 12 significant digits so that exact
    tie values reached through float arithmetic (e.g. 20.25 computed as
    20.249999999999996) land on the tie and round up as intended.
    """
    return float(Decimal(f"{x:.12g}").quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def display_percent(x: float | None) -> str:
    if x is None:
        return "n/a"
    return f"{round_half_up(100.0 * x):.1f}%"


def display_ns(x: float | None) -> str:
    if x is None:
        return "n/a"
    return f"{round_half_up(x):.1f}"
