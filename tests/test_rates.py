import math
from itertools import permutations, product

import numpy as np
import pytest

import hselab.bases as bases_mod
import hselab.hilbert as hilbert_mod
import hselab.rates as rates_mod
from conftest import (
    amub_iter_lower_bound,
    is_mutually_unbiased,
    make_random_basis,
    make_random_set,
    success_rate_einsum,
    transition_prob,
)
from hselab.bases import (
    BasisSet,
    average_distance,
    breidbart_basis,
    fourier_basis,
    mu_basis_set,
    prime_complete_set,
    qubit_six_state_set,
    qutrit_complete_set,
    standard_basis,
)
from hselab.errors import DimensionError, InvalidParameter
from hselab.hilbert import Basis, transition_matrix
from hselab.rates import (
    ProtocolConfig,
    _index_change_table,
    bkb01_rates,
    bob_error_rate,
    display_ns,
    display_percent,
    iter_rate,
    key_rate,
    mub_closed_forms,
    qber,
    rate_report,
    success_rate,
    table1,
)


def change_table(basis_set, eve):
    """The kernel's index-change table, from each member's Gram product with Eve."""
    return _index_change_table(np.stack([transition_matrix(b, eve) for b in basis_set.bases]))


def index_change_double_sum(basis_set, eve, i, x, y):
    """Reference evaluation: explicit sum over Eve's outcome and all of
    Bob's outcomes different from i."""
    d = basis_set.d
    total = 0.0
    for k in range(d):
        through = transition_prob(basis_set.bases[x].vectors[i], eve.vectors[k])
        for j in range(d):
            if j != i:
                total += through * transition_prob(eve.vectors[k], basis_set.bases[y].vectors[j])
    return total


def success_rate_direct(basis_set):
    """Reference evaluation: enumerate Bob's tuples AND Alice's index
    tuples outright, with per-slot probabilities from first principles."""
    c, d = basis_set.c, basis_set.d
    total = 0.0
    for x in range(c):
        for tup in permutations(range(c), c - 1):
            if x in tup:
                continue
            for indices in product(range(d), repeat=c - 1):
                term = 1.0
                for a, y in zip(indices, tup):
                    term *= 1.0 - transition_prob(
                        basis_set.bases[y].vectors[a], basis_set.bases[x].vectors[a]
                    )
                total += term
    return total / (c * math.factorial(c) * d ** (c - 1))


ENUMERATION_BUDGET = 10**7


class BudgetError(Exception):
    """A brute-force reference would exceed ENUMERATION_BUDGET terms."""


def _brute_force_budget(c, d):
    work = c * math.factorial(c) * d ** (c - 1)
    if work > ENUMERATION_BUDGET:
        raise BudgetError(f"direct enumeration needs {work:.2e} terms (budget {ENUMERATION_BUDGET:.0e})")


def key_rate_brute(basis_set, eve):
    """Reference evaluation of the key rate with Bob's tuples enumerated
    and the index-tuple sum left unfactorized."""
    c, d = basis_set.c, basis_set.d
    _brute_force_budget(c, d)
    table = change_table(basis_set, eve)
    total = 0.0
    for x in range(c):
        for tup in permutations(range(c), c - 1):
            for indices in product(range(d), repeat=c - 1):
                term = 1.0
                for a, y in zip(indices, tup):
                    term *= table[x, y, a]
                total += term
    return total / (c * math.factorial(c) * d ** (c - 1))


def bob_error_rate_brute(basis_set, eve):
    """Unfactorized reference evaluation of Bob's error rate."""
    c, d = basis_set.c, basis_set.d
    _brute_force_budget(c, d)
    table = change_table(basis_set, eve)
    total = 0.0
    for x in range(c):
        rest = [y for y in range(c) if y != x]
        for tail in permutations(rest, c - 2):
            tup = (x, *tail)
            for indices in product(range(d), repeat=c - 1):
                term = 1.0
                for a, y in zip(indices, tup):
                    term *= table[x, y, a]
                total += term
    return total / (c * math.factorial(c - 1) * d ** (c - 1))


def index_change_prob(basis_set, eve, i, x, y):
    """Probability that index i changes when Alice encodes in basis x,
    Eve intercepts, and Bob measures in basis y: one entry of the table
    the rate kernel uses."""
    if not 0 <= i < basis_set.d:
        raise InvalidParameter(f"index {i} outside 0..{basis_set.d - 1}")
    if not (0 <= x < basis_set.c and 0 <= y < basis_set.c):
        raise InvalidParameter(f"letters ({x}, {y}) outside 0..{basis_set.c - 1}")
    return float(change_table(basis_set, eve)[x, y, i])


class TestIndexChangeProb:
    @pytest.mark.parametrize("d,c,seed", [(2, 2, 1), (2, 3, 2), (3, 3, 3), (4, 2, 4)])
    def test_matches_double_sum_on_random_sets(self, d, c, seed):
        family = make_random_set(d, c, seed)
        eve = make_random_basis(d, seed + 900)
        for i in range(d):
            for x in range(c):
                for y in range(c):
                    assert index_change_prob(family, eve, i, x, y) == pytest.approx(
                        index_change_double_sum(family, eve, i, x, y), abs=1e-12
                    )

    def test_unbiased_family_with_member_eavesdropper(self, qutrit4):
        eve = qutrit4.bases[0]
        for i in range(3):
            assert index_change_prob(qutrit4, eve, i, 0, 0) == pytest.approx(0.0, abs=1e-12)
        for x, y in [(0, 1), (1, 0), (1, 1), (2, 3)]:
            for i in range(3):
                assert index_change_prob(qutrit4, eve, i, x, y) == pytest.approx(
                    1 - 1 / 3, abs=1e-12
                )

    def test_no_attack_limit(self, sixstate):
        # modeling "no interception" as Eve measuring in Alice's own basis
        for x in range(3):
            eve = sixstate.bases[x]
            for i in range(2):
                assert index_change_prob(sixstate, eve, i, x, x) == pytest.approx(
                    0.0, abs=1e-12
                )

    def test_rejects_bad_indices(self, sixstate):
        with pytest.raises(InvalidParameter):
            index_change_prob(sixstate, sixstate.bases[0], 5, 0, 0)
        with pytest.raises(InvalidParameter):
            index_change_prob(sixstate, sixstate.bases[0], 0, 3, 0)


class TestSuccessRate:
    def test_qutrit_complete_set(self, qutrit4):
        assert success_rate(qutrit4) == pytest.approx(2 / 27, abs=1e-12)

    def test_six_state_triple(self, sixstate):
        assert success_rate(sixstate) == pytest.approx(1 / 12, abs=1e-12)

    def test_unbiased_pair_qubits(self):
        pair = BasisSet([standard_basis(2), fourier_basis(2)])
        assert success_rate(pair) == pytest.approx(1 / 4, abs=1e-12)

    @pytest.mark.parametrize("d,c", [(2, 2), (2, 3), (3, 3), (3, 4), (5, 4), (7, 8)])
    def test_unbiased_closed_form(self, d, c):
        family = mu_basis_set(d, c)
        expected = (1 - 1 / d) ** (c - 1) / c
        assert success_rate(family) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("d,c,seed", [(2, 2, 21), (2, 3, 22), (3, 2, 23), (3, 3, 24)])
    def test_matches_direct_enumeration_on_random_sets(self, d, c, seed):
        family = make_random_set(d, c, seed)
        assert success_rate(family) == pytest.approx(success_rate_direct(family), abs=1e-13)


class TestOneGramProductPerRate:
    """A report takes each member's Gram product with Eve once, and the
    success rate reads the set's stored miss figures instead of a product."""

    def test_a_report_takes_each_product_with_eve_once(self, monkeypatch):
        family = prime_complete_set(7, 8)
        calls = []

        def counting(b1, b2):
            calls.append((b1.label, b2.label))
            return transition_matrix(b1, b2)

        for module in (rates_mod, bases_mod):
            monkeypatch.setattr(module, "transition_matrix", counting)
        rate_report(family, family.bases[0])
        assert calls == [(f"B{x}", "B0") for x in range(8)]

    def test_the_success_rate_takes_no_product(self, monkeypatch):
        family = prime_complete_set(7, 8)
        expected = success_rate_einsum(family)

        def refuse(*args, **kwargs):
            raise AssertionError("a Gram product was taken")

        monkeypatch.setattr(np, "einsum", refuse)
        for module in (hilbert_mod, bases_mod, rates_mod):
            monkeypatch.setattr(module, "transition_matrix", refuse)
        assert success_rate(family) == expected

    @pytest.mark.parametrize(
        "build",
        [
            qubit_six_state_set,
            qutrit_complete_set,
            lambda: mu_basis_set(4, 5),
            lambda: prime_complete_set(5, 6),
            lambda: prime_complete_set(7, 8),
            lambda: prime_complete_set(31, 32),
            lambda: prime_complete_set(61, 62),
            lambda: BasisSet([standard_basis(6), fourier_basis(6)]),
        ],
        ids=["sixstate", "qutrit4", "mub-4-5", "prime-5-6", "prime-7-8", "prime-31-32", "prime-61-62", "fourier-6"],
    )
    def test_stored_path_equals_the_einsum_oracle_bit_for_bit(self, build):
        family = build()
        assert success_rate(family) == success_rate_einsum(family)

    @pytest.mark.parametrize("d,c,seed", [(2, 3, 31), (3, 3, 32), (4, 5, 33), (5, 4, 34), (7, 8, 35)])
    def test_stored_path_agrees_with_the_oracle_on_random_sets(self, d, c, seed):
        family = make_random_set(d, c, seed)
        assert success_rate(family) == pytest.approx(success_rate_einsum(family), rel=1e-15, abs=0)

    @pytest.mark.parametrize("d,c,seed", [(2, 3, 41), (3, 4, 42), (4, 5, 43), (5, 6, 44), (3, 3, 45), (5, 4, 46)])
    def test_report_iter_equals_iter_rate_bit_for_bit(self, d, c, seed):
        for family in (mu_basis_set(d, c), make_random_set(d, c, seed)):
            for eve in (family.bases[0], make_random_basis(d, seed + 500)):
                assert rate_report(family, eve).r_it == iter_rate(family, eve)


class TestBitTransmissionRate:
    def test_values(self, sixstate, qutrit4):
        mu78 = mu_basis_set(7, 8)
        assert rate_report(sixstate, sixstate.bases[0]).r_t == pytest.approx(math.log2(3) / 12, abs=1e-12)
        assert rate_report(qutrit4, qutrit4.bases[0]).r_t == pytest.approx(4 / 27, abs=1e-12)
        assert rate_report(mu78, mu78.bases[0]).r_t == pytest.approx(3 * (1 / 8) * (6 / 7) ** 7, abs=1e-12)


class TestIterRate:
    @pytest.mark.parametrize("d,c", [(2, 2), (2, 3), (3, 4), (4, 5), (5, 6), (7, 8)])
    def test_unbiased_closed_form(self, d, c):
        family = mu_basis_set(d, c)
        assert iter_rate(family, family.bases[0]) == pytest.approx(
            (c - 1) * (d - 1) / (c * d), abs=1e-12
        )

    def test_complete_set_dimension_five(self):
        family = mu_basis_set(5, 6)
        assert iter_rate(family, family.bases[0]) == pytest.approx(2 / 3, abs=1e-12)

    def test_three_bases_dimension_six(self, sixstate, qutrit4):
        # tensor products of unbiased bases are unbiased, giving a triple in d=6
        members = [
            Basis(f"t{i}", np.kron(sixstate.bases[i].matrix, qutrit4.bases[i].matrix))
            for i in range(3)
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert is_mutually_unbiased(members[i], members[j], 1e-10).ok
        family = BasisSet(members)
        assert iter_rate(family, family.bases[0]) == pytest.approx(5 / 9, abs=1e-10)
        assert mub_closed_forms(3, 6).r_it == pytest.approx(5 / 9, abs=1e-15)

    def test_equals_average_distance_for_random_draws(self):
        for seed in range(10):
            family = make_random_set(3, 3, 600 + seed)
            eve = make_random_basis(3, 700 + seed)
            assert iter_rate(family, eve) == pytest.approx(
                average_distance(eve, family), abs=1e-10
            )


# the complete MU sets mu_basis_set builds, c = d + 1
COMPLETE_SETS = [(2, 3), (3, 4), (4, 5), (5, 6), (7, 8)]


class TestIterInvariants:
    """Two identities of R_IT for an Eve basis drawn at random."""

    @pytest.mark.parametrize("d,c", COMPLETE_SETS)
    def test_complete_sets_give_the_closed_form_for_any_eve(self, d, c):
        # a complete set of MUBs is a complex projective 2-design (Klappenecker
        # & Roetteler, 2005): the mean of |<v_i^x|e_k>|^4 over the set's states
        # is the same for every unit vector e_k, so no Eve basis moves R_IT
        family, expected = mu_basis_set(d, c), mub_closed_forms(c, d).r_it
        for seed in range(25):
            assert iter_rate(family, make_random_basis(d, 4000 + seed)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("d,c", [(3, 3), (5, 4)])
    def test_incomplete_sets_move_off_the_closed_form(self, d, c):
        family, expected = mu_basis_set(d, c), mub_closed_forms(c, d).r_it
        gaps = [abs(iter_rate(family, make_random_basis(d, 4000 + seed)) - expected) for seed in range(25)]
        assert max(gaps) > 0.01

    @pytest.mark.parametrize(
        "build",
        [lambda d=d, c=c: mu_basis_set(d, c) for d, c in COMPLETE_SETS]
        + [lambda: make_random_set(3, 3, 47), lambda: make_random_set(4, 2, 48), lambda: make_random_set(5, 4, 49)],
        ids=[f"mub-{d}-{c}" for d, c in COMPLETE_SETS] + ["random-3-3", "random-4-2", "random-5-4"],
    )
    def test_iter_is_the_index_change_with_bob_in_alices_basis(self, build):
        family = build()
        letters = np.arange(family.c)
        for seed in range(5):
            eve = make_random_basis(family.d, 4100 + seed)
            in_alices_basis = change_table(family, eve)[letters, letters]
            assert rate_report(family, eve).r_it == pytest.approx(in_alices_basis.mean(), abs=1e-12)


class TestKeyAndBobErrorRates:
    def test_six_state_with_member_eavesdropper(self, sixstate):
        eve = sixstate.bases[0]
        assert bob_error_rate(sixstate, eve) == pytest.approx(1 / 6, abs=1e-12)
        assert key_rate(sixstate, eve) == pytest.approx(7 / 36, abs=1e-12)

    def test_qutrit_complete_with_member_eavesdropper(self, qutrit4):
        assert bob_error_rate(qutrit4, qutrit4.bases[0]) == pytest.approx(2 / 9, abs=1e-12)

    @pytest.mark.parametrize(
        "d,c",
        [(d, c) for d in (2, 3, 4, 5) for c in (2, 3, 4) if (d, c) != (2, 4)],
    )
    def test_closed_forms_match_enumeration(self, d, c):
        family = mu_basis_set(d, c)
        eve = family.bases[0]
        q = (1 - 1 / d) ** (c - 1)
        assert bob_error_rate(family, eve) == pytest.approx((1 - 1 / c) * q, abs=1e-10)
        assert key_rate(family, eve) == pytest.approx(
            (1 - 1 / c + 1 / c**2) * q, abs=1e-10
        )

    def test_two_letter_alphabet_reduces_to_iter(self):
        for seed in range(6):
            family = make_random_set(3, 2, 800 + seed)
            eve = make_random_basis(3, 900 + seed)
            assert bob_error_rate(family, eve) == pytest.approx(
                iter_rate(family, eve), abs=1e-12
            )

    @pytest.mark.parametrize("d,c,seed", [(2, 2, 1), (2, 3, 2), (3, 2, 3), (3, 3, 4)])
    def test_factorization_matches_brute_force(self, d, c, seed):
        for family, eve in [
            (make_random_set(d, c, seed), make_random_basis(d, seed + 70)),
            (mu_basis_set(d, c), mu_basis_set(d, c).bases[0]),
        ]:
            assert key_rate(family, eve) == pytest.approx(
                key_rate_brute(family, eve), abs=1e-13
            )
            assert bob_error_rate(family, eve) == pytest.approx(
                bob_error_rate_brute(family, eve), abs=1e-13
            )

    def test_brute_force_budget(self):
        family = mu_basis_set(7, 8)
        with pytest.raises(BudgetError):
            key_rate_brute(family, family.bases[0])


# every (d, c) the other rate tests use, plus one beyond any enumeration
KERNEL_GRID = [
    (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4), (4, 5),
    (5, 2), (5, 3), (5, 4), (5, 6), (7, 6), (7, 8), (11, 10),
]


class TestSurvivalKernel:
    @pytest.mark.parametrize("d,c", KERNEL_GRID)
    def test_matches_closed_forms(self, d, c):
        forms = mub_closed_forms(c, d)
        families = [mu_basis_set(d, c)]
        if d % 2 and c <= d + 1:
            families.append(prime_complete_set(d, c))
        for family in families:
            eve = family.bases[0]
            assert success_rate(family) == pytest.approx(forms.r_s, abs=1e-14)
            assert key_rate(family, eve) == pytest.approx(forms.r_k, abs=1e-14)
            assert bob_error_rate(family, eve) == pytest.approx(forms.r_be, abs=1e-14)
            assert qber(family, eve) == pytest.approx(forms.r_qb, abs=1e-14)

    def test_report_agrees_with_single_rates(self, sixstate):
        eve = breidbart_basis()
        report = rate_report(sixstate, eve)
        assert (report.protocol, report.d, report.c, report.method) == ("hse", 2, 3, "enumeration")
        assert report.r_k == key_rate(sixstate, eve)
        assert report.r_be == bob_error_rate(sixstate, eve)
        assert report.r_qb == qber(sixstate, eve)
        assert report.r_s == success_rate(sixstate)
        assert report.r_it == iter_rate(sixstate, eve)
        assert report.n_s == pytest.approx(2 / report.r_t, abs=1e-12)

    def test_eve_of_another_dimension_is_refused(self, qutrit4):
        # numpy's ValueError from the Gram product once escaped from here
        with pytest.raises(DimensionError):
            rate_report(qutrit4, breidbart_basis())


class TestQber:
    def test_dimension_independence(self):
        reference = {}
        for c in (2, 3, 4):
            for d in (3, 5):
                family = mu_basis_set(d, c)
                value = qber(family, family.bases[0])
                reference.setdefault(c, value)
                assert value == pytest.approx(reference[c], abs=1e-10)
                assert value == pytest.approx(
                    (1 - 1 / c) ** 2 / (1 - 1 / c + 1 / c**2), abs=1e-10
                )

    def test_three_letters(self, sixstate):
        assert qber(sixstate, sixstate.bases[0]) == pytest.approx(4 / 7, abs=1e-12)

    def test_two_letter_reduction(self):
        for seed in range(6):
            family = make_random_set(2, 2, 950 + seed)
            eve = make_random_basis(2, 990 + seed)
            assert qber(family, eve) == pytest.approx(
                iter_rate(family, eve) / (2 * key_rate(family, eve)), abs=1e-10
            )

    def test_breidbart_eavesdropper_accepted(self):
        pair = BasisSet([standard_basis(2), fourier_basis(2)])
        value = qber(pair, breidbart_basis())
        assert 0.0 < value < 1.0


@pytest.mark.parametrize("closed_forms", [mub_closed_forms, bkb01_rates])
@pytest.mark.parametrize("c,d", [(1, 2), (2, 1), (0, 3), (3, -1)])
def test_closed_forms_need_c_and_d_of_two_or_more(closed_forms, c, d):
    with pytest.raises(InvalidParameter, match="need c >= 2 and d >= 2"):
        closed_forms(c, d)


class TestMubClosedForms:
    def test_two_two(self):
        forms = mub_closed_forms(2, 2)
        assert forms.r_it == pytest.approx(0.25, abs=1e-15)
        assert forms.r_qb == pytest.approx(1 / 3, abs=1e-15)
        assert forms.r_t == pytest.approx(0.25, abs=1e-15)
        assert forms.n_s == pytest.approx(4.0, abs=1e-12)

    def test_seven_eight(self):
        forms = mub_closed_forms(8, 7)
        assert forms.r_it == pytest.approx(3 / 4, abs=1e-15)
        assert forms.r_qb == pytest.approx(49 / 57, abs=1e-15)
        assert forms.n_s == pytest.approx(7 / (3 * (1 / 8) * (6 / 7) ** 7), abs=1e-9)

    def test_complete_set_iter(self):
        assert mub_closed_forms(4, 3).r_it == pytest.approx(1 / 2, abs=1e-15)

    def test_states_per_bit_consistency(self):
        for c in (2, 3, 5, 8):
            for d in (2, 3, 7):
                forms = mub_closed_forms(c, d)
                assert forms.n_s == pytest.approx((c - 1) / forms.r_t, abs=1e-9)

    def test_monotonicity_in_both_parameters(self):
        for c in range(2, 13):
            for d in range(2, 13):
                here = mub_closed_forms(c, d).r_it
                assert mub_closed_forms(c + 1, d).r_it > here
                assert mub_closed_forms(c, d + 1).r_it > here

    def test_infeasible_flag(self):
        assert mub_closed_forms(5, 3).note == "c exceeds d+1: no such MU set exists"
        assert mub_closed_forms(4, 3).note == ""


class TestAmubBound:
    def test_reference_value(self):
        assert amub_iter_lower_bound(100, 0.0) == pytest.approx(0.839916, abs=1e-12)

    def test_tends_to_one(self):
        values = [amub_iter_lower_bound(d, 0.0) for d in (10**3, 10**4, 10**5, 10**6)]
        assert values == sorted(values)
        assert values[-1] > 0.99998

    def test_vacuous_region_clamped(self):
        assert amub_iter_lower_bound(2, 0.0) == 0.0

    def test_larger_constant_weakens_bound(self):
        assert amub_iter_lower_bound(1000, 5.0) < amub_iter_lower_bound(1000, 0.0)

    def test_domain_checks(self):
        with pytest.raises(InvalidParameter):
            amub_iter_lower_bound(1, 0.0)
        with pytest.raises(InvalidParameter):
            amub_iter_lower_bound(10, -1.0)


class TestBkb01:
    def test_rows(self):
        row = bkb01_rates(2, 3)
        assert row.r_t == pytest.approx(math.log2(3) / 2, abs=1e-15)
        assert row.n_s == pytest.approx(2 / math.log2(3), abs=1e-12)
        assert bkb01_rates(2, 7).r_t == pytest.approx(math.log2(7) / 2, abs=1e-15)
        assert bkb01_rates(2, 7).r_t > 1.0
        assert bkb01_rates(3, 2).r_qb == pytest.approx(1 / 3, abs=1e-15)

    def test_four_state_special_case(self):
        row = bkb01_rates(2, 2)
        assert row.r_qb == pytest.approx(0.25, abs=1e-15)
        assert row.r_t == pytest.approx(0.5, abs=1e-15)
        assert row.n_s == pytest.approx(2.0, abs=1e-12)


class TestComparisonTable:
    def test_row_count_and_protocols(self):
        rows = table1()
        assert len(rows) == 12
        assert [r.protocol for r in rows] == [
            "BB84", "KMB09", "BKB01 (6-state)", "HSE",
            "BKB01", "KMB09", "BKB01", "HSE",
            "BKB01", "KMB09", "BKB01", "HSE",
        ]

    def test_four_state_row_equals_special_case(self):
        row = table1()[0]
        special = bkb01_rates(2, 2)
        assert row.r_qb == special.r_qb
        assert row.r_t == special.r_t
        assert row.n_s == special.n_s

    def test_states_per_bit_invariant(self):
        for row in table1():
            if row.protocol in ("HSE", "KMB09"):
                assert row.n_s == pytest.approx((row.c - 1) / row.r_t, abs=1e-9)


class TestDisplayRounding:
    def test_half_up_at_ties(self):
        assert display_ns(20.25) == "20.3"
        assert display_ns(20.249999999999996) == "20.3"
        assert display_ns(15.14232) == "15.1"
        assert display_ns(None) == "n/a"
        assert display_percent(0.5714285714285714) == "57.1%"
        assert display_percent(1.4036774610288023) == "140.4%"
        assert display_percent(None) == "n/a"


class TestProtocolConfig:
    def test_rejects_mismatched_shape(self, sixstate):
        with pytest.raises(InvalidParameter):
            ProtocolConfig(c=4, d=2, basis_set=sixstate)
        with pytest.raises(InvalidParameter):
            ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=standard_basis(3))

    def test_rejects_bad_fraction(self, sixstate):
        with pytest.raises(InvalidParameter):
            ProtocolConfig(c=3, d=2, basis_set=sixstate, intercept_fraction=1.5)
