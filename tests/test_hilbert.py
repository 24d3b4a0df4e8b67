import math

import numpy as np
import pytest

from conftest import freq_tolerance, make_random_basis, make_random_set, overlap, set_states, transition_prob
from hselab.bases import BasisSet, fourier_basis, mu_basis_set, standard_basis
from hselab.errors import DimensionError, InvalidParameter, NumericalError
from hselab.hilbert import (
    TAU_NORM,
    Basis,
    StateVector,
    born_probabilities,
    born_rows,
    born_sample,
    cdf_rows,
    invert_cdf,
    sample_row,
    transition_matrix,
    verify_orthonormal,
)
from hselab.rng import RandomStream


def standard_vector(d, index):
    """Computational basis vector |index> in dimension d."""
    amps = np.zeros(d, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def random_state(d, seed):
    stream = RandomStream(seed, "state")
    raw = np.array(
        [complex(stream.uniform() - 0.5, stream.uniform() - 0.5) for _ in range(d)]
    )
    return StateVector(raw / np.linalg.norm(raw))


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidParameter):
            StateVector([1.0, 1.0])

    def test_rejects_dimension_one(self):
        with pytest.raises(InvalidParameter):
            StateVector([1.0])

    def test_rejects_a_matrix(self):
        with pytest.raises(InvalidParameter, match="must be 1-D"):
            StateVector(np.eye(2))

    def test_rejects_nan(self):
        with pytest.raises(InvalidParameter):
            StateVector([float("nan"), 0.0])
        with pytest.raises(InvalidParameter, match="finite"):
            StateVector([complex(1.0, float("inf")), 0.0])

    def test_accepts_within_tolerance(self):
        eps = 0.4 * TAU_NORM
        vec = StateVector([math.sqrt(1.0 + eps), 0.0])
        assert vec.dim == 2

    def test_amps_immutable(self):
        vec = standard_vector(3, 0)
        with pytest.raises(ValueError):
            vec.amps[0] = 0.0

    def test_pairs_are_the_exact_floats(self):
        # a basis's vectors and a validated vector alike
        for vec in (fourier_basis(3).vectors[1], StateVector([0.6, -0.8j])):
            pairs = vec.pairs()
            assert pairs == tuple((z.real, z.imag) for z in vec.amps.tolist())
            assert all(type(x) is float for pair in pairs for x in pair)
            assert repr(vec) == f"StateVector(amps={vec.amps!r})"


class TestOverlap:
    def test_self_overlap_is_one(self):
        for d, seed in [(2, 1), (5, 2), (7, 3)]:
            amp = overlap(random_state(d, seed), random_state(d, seed))
            assert abs(amp - 1.0) <= TAU_NORM

    def test_standard_vs_fourier_column(self):
        e0 = standard_vector(3, 0)
        col0 = fourier_basis(3).vectors[0]
        assert overlap(e0, col0) == pytest.approx(1 / math.sqrt(3), abs=1e-15)

    def test_rotated_qubit(self):
        # direct evaluation: <e0 | (cos t, sin t)> = cos t
        t = math.pi / 8
        v = StateVector([math.cos(t), math.sin(t)])
        assert overlap(standard_vector(2, 0), v) == pytest.approx(math.cos(t), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            overlap(standard_vector(2, 0), standard_vector(3, 0))

    def test_conjugate_symmetry(self):
        for seed in range(10):
            u = random_state(4, 2 * seed)
            v = random_state(4, 2 * seed + 1)
            fwd = overlap(u, v)
            rev = overlap(v, u)
            assert abs(fwd.real - rev.real) <= 1e-15
            assert abs(fwd.imag + rev.imag) <= 1e-15


class TestTransitionProb:
    def test_identical_states(self):
        v = random_state(3, 11)
        assert transition_prob(v, v) == pytest.approx(1.0, abs=TAU_NORM)

    def test_fourier_columns_uniform(self):
        for d in (2, 3, 6):
            f = fourier_basis(d)
            for j in range(d):
                p = transition_prob(standard_vector(d, 0), f.vectors[j])
                assert p == pytest.approx(1.0 / d, abs=1e-12)

    def test_orthogonal_states(self):
        assert transition_prob(standard_vector(4, 0), standard_vector(4, 3)) == 0.0

    def test_clamps_to_unit_interval(self):
        v = random_state(5, 12)
        assert 0.0 <= transition_prob(v, v) <= 1.0


class TestTransitionMatrix:
    @pytest.mark.parametrize("d,seed", [(2, 1), (3, 2), (5, 3)])
    def test_entries_are_transition_probs(self, d, seed):
        b1, b2 = make_random_basis(d, seed), make_random_basis(d, seed + 10)
        matrix = transition_matrix(b1, b2)
        assert matrix.shape == (d, d)
        for i, u in enumerate(b1.vectors):
            for k, v in enumerate(b2.vectors):
                assert matrix[i, k] == pytest.approx(transition_prob(u, v), abs=1e-14)
        # each row and column is a distribution over the other basis
        assert np.allclose(matrix.sum(axis=0), 1.0) and np.allclose(matrix.sum(axis=1), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            transition_matrix(fourier_basis(2), fourier_basis(3))


class TestBornSample:
    def test_eigenstate_is_deterministic(self):
        basis = fourier_basis(4)
        stream = RandomStream(0)
        assert all(born_sample(basis.vectors[2], basis, stream) == 2 for _ in range(50))

    def test_uniform_frequencies(self):
        basis = fourier_basis(3)
        state = standard_vector(3, 0)
        stream = RandomStream(77)
        n = 100_000
        counts = np.bincount([born_sample(state, basis, stream) for _ in range(n)], minlength=3)
        assert np.all(np.abs(counts / n - 1 / 3) < 0.01)

    def test_deterministic_given_stream(self):
        basis = fourier_basis(3)
        state = standard_vector(3, 1)
        seq1 = [born_sample(state, basis, RandomStream(5, k)) for k in range(100)]
        seq2 = [born_sample(state, basis, RandomStream(5, k)) for k in range(100)]
        assert seq1 == seq2

    def test_empirical_matches_born_probabilities(self):
        basis = make_random_basis(3, 902)
        state = random_state(3, 903)
        probs = born_probabilities(basis, state)
        stream = RandomStream(41)
        n = 60_000
        counts = np.bincount([born_sample(state, basis, stream) for _ in range(n)], minlength=3)
        for j in range(3):
            assert abs(counts[j] / n - probs[j]) < freq_tolerance(probs[j], n)

    def test_corrupt_basis_raises(self):
        matrix = np.eye(3, dtype=complex)
        matrix[0, 0] = 1.01
        broken = Basis("broken", matrix, validate=False)
        with pytest.raises(NumericalError):
            born_sample(standard_vector(3, 0), broken, RandomStream(0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            born_sample(standard_vector(2, 0), fourier_basis(3), RandomStream(0))

    def test_probabilities_sum_to_one(self):
        for d, seed in [(2, 31), (5, 32), (7, 33)]:
            basis = make_random_basis(d, seed)
            state = random_state(d, seed + 100)
            assert abs(born_probabilities(basis, state).sum() - 1.0) <= d * TAU_NORM


class TestSampleFromProbs:
    """born_sample's last step: invert_cdf on the cumsum of the outcome
    probabilities."""

    def test_inverts_cdf(self):
        cdf = np.cumsum([0.25, 0.5, 0.25]).tolist()
        assert invert_cdf(cdf, 0.0) == 0
        assert invert_cdf(cdf, 0.24) == 0
        assert invert_cdf(cdf, 0.25) == 1
        assert invert_cdf(cdf, 0.74) == 1
        assert invert_cdf(cdf, 0.75) == 2
        assert invert_cdf(cdf, 0.999999) == 2

    def test_zero_leading_probability(self):
        assert invert_cdf(np.cumsum([0.0, 1.0]).tolist(), 0.0) == 1

    def test_never_exceeds_range(self):
        cdf = np.cumsum([0.5, 0.5 - 1e-12]).tolist()
        assert invert_cdf(cdf, 1.0 - 1e-16) == 1


def negated_set():
    """A qubit set whose amplitudes include -0.0."""
    return BasisSet([Basis("minus", -np.eye(2, dtype=complex)), fourier_basis(2)])


class TestBornRows:
    @staticmethod
    def assert_rows_are_the_scalar_rows(basis_set):
        states = set_states(basis_set)
        amps = np.array([state.amps for state in states])
        for basis in basis_set.bases:
            rows = born_rows(basis, amps)
            scalar = np.array([born_probabilities(basis, state) for state in states])
            # bit for bit: the bytes tell -0.0 from 0.0 and any last-ulp change
            assert rows.tobytes() == scalar.tobytes()
            # a row is the same whatever rows are computed with it
            assert born_rows(basis, amps[1::3]).tobytes() == rows[1::3].tobytes()

    # complete sets up to d = 31; eight bases at d = 61
    @pytest.mark.parametrize("d,c", [(2, 3), (3, 4), (5, 6), (7, 8), (13, 14), (31, 32), (61, 8)])
    def test_equal_born_probabilities_on_mu_sets(self, d, c):
        self.assert_rows_are_the_scalar_rows(mu_basis_set(d, c))

    @pytest.mark.parametrize("d,c,seed", [(2, 3, 1), (3, 4, 2), (4, 3, 3), (6, 2, 4), (9, 3, 5), (16, 3, 6), (31, 2, 7)])
    def test_equal_born_probabilities_on_random_sets(self, d, c, seed):
        self.assert_rows_are_the_scalar_rows(make_random_set(d, c, seed))

    def test_equal_born_probabilities_with_negative_zeros(self):
        self.assert_rows_are_the_scalar_rows(negated_set())

    def test_rows_are_renormalized_distributions(self):
        basis = make_random_basis(5, 61)
        rows = born_rows(basis, np.array([random_state(5, 70 + k).amps for k in range(9)]))
        assert rows.shape == (9, 5)
        assert np.all(rows >= 0.0)
        assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= 5 * TAU_NORM)

    def test_any_corrupt_row_raises(self):
        basis = fourier_basis(3)
        amps = np.array([standard_vector(3, k).amps for k in range(3)])
        born_rows(basis, amps)
        amps[2] *= 1.01
        with pytest.raises(NumericalError):
            born_rows(basis, amps)
        with pytest.raises(NumericalError):
            born_rows(basis, amps[2:])

    def test_corrupt_basis_raises(self):
        matrix = np.eye(3, dtype=complex)
        matrix[0, 0] = 1.01
        broken = Basis("broken", matrix, validate=False)
        with pytest.raises(NumericalError):
            born_rows(broken, np.eye(3, dtype=complex))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            born_rows(fourier_basis(3), np.eye(2, dtype=complex))
        with pytest.raises(DimensionError):
            born_rows(fourier_basis(3), standard_vector(3, 0).amps)


class Drawn:
    """A stream whose one draw is u, so that born_sample inverts u."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


class TestSampleRow:
    def test_one_off_pairs_sample_as_born_sample(self):
        bases = [make_random_basis(3, 41 + k) for k in range(3)]
        for seed in range(6):
            state = random_state(3, 500 + seed)
            for which, basis in enumerate(bases):
                cdf = np.cumsum(born_probabilities(basis, state)).tolist()
                # ties at the cdf entries themselves, and both ends
                draws = [0.0, 1.0 - 2**-53, *cdf] + [RandomStream(seed, which).uniform() for _ in range(20)]
                for u in draws:
                    expected = invert_cdf(cdf, u)
                    assert sample_row(state.pairs(), bases, which, u) == expected
                    assert born_sample(state, basis, Drawn(u)) == expected

    @pytest.mark.parametrize("basis_set", [mu_basis_set(5, 6), make_random_set(3, 4, 9), negated_set()])
    def test_held_rows_equal_one_off_rows(self, basis_set):
        states = set_states(basis_set)
        bases = basis_set.bases
        held = cdf_rows(bases, states)
        assert len(held) == len(states)
        assert all(len(rows) == len(bases) and all(len(row) == basis_set.d - 1 for row in rows) for rows in held)
        for which, basis in enumerate(bases):
            for state, rows in zip(states, held):
                cdf = np.cumsum(born_probabilities(basis, state)).tolist()
                assert rows[which] == cdf[:-1]
                # each cdf entry and the float below it pin the row's floats
                draws = [0.0, 1.0 - 2**-53, *cdf, *np.nextafter(cdf, 0.0).tolist()]
                for u in draws:
                    expected = born_sample(state, basis, Drawn(u))
                    assert sample_row(rows, bases, which, u) == expected
                    assert sample_row(state.pairs(), bases, which, u) == expected

    def test_strangers_are_measured_and_not_kept(self, sixstate):
        states = set_states(sixstate)
        held = cdf_rows(sixstate.bases, states)
        strangers = [make_random_basis(2, 80 + k).vectors[0] for k in range(4)]
        for state in strangers:
            for which, basis in enumerate(sixstate.bases):
                expected = born_sample(state, basis, RandomStream(3, which))
                assert sample_row(state.pairs(), sixstate.bases, which, RandomStream(3, which).uniform()) == expected
        # measuring strangers touches no held row
        assert held == cdf_rows(sixstate.bases, states)
        assert cdf_rows(sixstate.bases, []) == []

    def test_the_one_off_path_validates_the_state(self):
        bases = [standard_basis(2)]
        with pytest.raises(InvalidParameter):
            sample_row(((1.0, 0.0), (1.0, 0.0)), bases, 0, 0.5)
        with pytest.raises(DimensionError):
            sample_row(((1.0, 0.0), (0.0, 0.0), (0.0, 0.0)), bases, 0, 0.5)


class TestVerifyOrthonormal:
    def test_standard_basis_exact(self):
        report = verify_orthonormal(standard_basis(5), TAU_NORM)
        assert report.ok and report.max_deviation == 0.0

    def test_fourier_six_within_tight_tolerance(self):
        assert verify_orthonormal(fourier_basis(6), 1e-12).ok

    def test_scaled_vector_detected(self):
        matrix = np.eye(4, dtype=complex)
        matrix[:, 1] *= 1.01
        report = verify_orthonormal(matrix, TAU_NORM)
        assert not report.ok and report.max_deviation > 1e-3

    def test_requires_positive_tolerance(self):
        with pytest.raises(InvalidParameter):
            verify_orthonormal(standard_basis(2), 0.0)


def test_basis_construction_rejects_nonorthonormal():
    matrix = np.ones((2, 2), dtype=complex) / math.sqrt(2)
    with pytest.raises(InvalidParameter):
        Basis("bad", matrix)


@pytest.mark.parametrize(
    "matrix,message",
    [(np.eye(2, 3), "must be square"), (np.eye(2)[0], "must be square"), ([[1.0]], "dimension >= 2")],
    ids=["2x3", "1-D", "1x1"],
)
def test_basis_construction_rejects_a_wrong_shape(matrix, message):
    with pytest.raises(InvalidParameter, match=message):
        Basis("bad", matrix)
