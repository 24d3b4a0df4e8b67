import cmath
import math
import re

import numpy as np
import pytest

import hselab.bases as bases_mod
from conftest import first_basis_doc, is_mutually_unbiased, make_random_basis, make_random_set, transition_prob
from hselab.bases import (
    TAU_DISTINCT,
    BasisSet,
    average_distance,
    breidbart_basis,
    fourier_basis,
    grassmannian_distance,
    load_basis_set,
    max_cross_overlap,
    mu_basis_set,
    named_basis_set,
    prime_complete_set,
    qubit_six_state_set,
    qutrit_complete_set,
    save_basis_set,
    standard_basis,
)
from hselab.cli import main
from hselab.errors import ConstructionError, DimensionError, InvalidParameter
from hselab.hilbert import Basis, transition_matrix
from hselab.rates import iter_rate, mub_closed_forms, rate_report

W3 = cmath.exp(2j * cmath.pi / 3)


def embedded_plane_operator(basis):
    """Reference route for the squared plane distance: materialize the
    projector-onto-the-plane operator in the real vector space of d x d
    Hermitian matrices (inner product Tr AB) and take traces directly."""
    d = basis.dim
    vectors = []
    for j in range(d):
        col = basis.matrix[:, j]
        projector = np.outer(col, col.conj())
        vectors.append(projector.reshape(-1))
    plane = np.zeros((d * d, d * d), dtype=complex)
    for vec in vectors:
        plane += np.outer(vec, vec.conj())
    return plane / math.sqrt(d)


def distance_via_embedding(b1, b2):
    p1 = embedded_plane_operator(b1)
    p2 = embedded_plane_operator(b2)
    return 1.0 - float(np.trace(p1 @ p2).real)


def bloch_vector(state):
    a, b = state.amps
    return (
        2.0 * (a.conjugate() * b).real,
        2.0 * (a.conjugate() * b).imag,
        abs(a) ** 2 - abs(b) ** 2,
    )


class TestStandardAndFourier:
    def test_standard_three_is_identity(self):
        assert np.array_equal(standard_basis(3).matrix, np.eye(3))

    def test_standard_qubit_kets(self):
        basis = standard_basis(2)
        assert np.array_equal(basis.vectors[0].amps, [1, 0])
        assert np.array_equal(basis.vectors[1].amps, [0, 1])

    def test_standard_seven_orthonormal_exactly(self):
        from hselab.hilbert import verify_orthonormal

        assert verify_orthonormal(standard_basis(7), 1e-15).max_deviation == 0.0

    def test_fourier_three_matches_qutrit_second_basis(self):
        expected = qutrit_complete_set().bases[1].matrix
        assert np.allclose(fourier_basis(3).matrix, expected, atol=1e-14)

    def test_fourier_two_is_hadamard(self):
        h = fourier_basis(2).matrix
        s = 1 / math.sqrt(2)
        assert np.allclose(h, [[s, s], [s, -s]], atol=1e-15)

    def test_fourier_uniform_moduli_d6(self):
        f = fourier_basis(6)
        probs = np.abs(np.eye(6).conj().T @ f.matrix) ** 2
        assert np.max(np.abs(probs - 1 / 6)) < 1e-12

    @pytest.mark.parametrize("d", range(2, 13))
    def test_fourier_unbiased_to_standard(self, d):
        assert is_mutually_unbiased(standard_basis(d), fourier_basis(d), 1e-10).ok

    @pytest.mark.parametrize("d", (0, 1))
    def test_small_dimension_rejected(self, d):
        with pytest.raises(InvalidParameter):
            standard_basis(d)
        with pytest.raises(InvalidParameter):
            fourier_basis(d)


class TestQutritCompleteSet:
    def test_pairwise_unbiased(self, qutrit4):
        for x in range(4):
            for y in range(x + 1, 4):
                mu = is_mutually_unbiased(qutrit4.bases[x], qutrit4.bases[y], 1e-12)
                assert mu.ok

    def test_pairwise_distance(self, qutrit4):
        for x in range(4):
            for y in range(x + 1, 4):
                d2 = grassmannian_distance(qutrit4.bases[x], qutrit4.bases[y])
                assert d2 == pytest.approx(2 / 3, abs=1e-12)

    def test_third_basis_second_vector(self, qutrit4):
        expected = np.array([1, 1, W3]) / math.sqrt(3)
        assert np.allclose(qutrit4.bases[2].vectors[1].amps, expected, atol=1e-14)


class TestSixStateSet:
    def test_pairwise_unbiased(self, sixstate):
        for x in range(3):
            for y in range(x + 1, 3):
                gram = np.abs(sixstate.bases[x].matrix.conj().T @ sixstate.bases[y].matrix) ** 2
                assert np.max(np.abs(gram - 0.5)) < 1e-12

    def test_pairwise_distance(self, sixstate):
        for x in range(3):
            for y in range(x + 1, 3):
                assert grassmannian_distance(
                    sixstate.bases[x], sixstate.bases[y]
                ) == pytest.approx(0.5, abs=1e-12)

    def test_bloch_points(self, sixstate):
        points = {
            tuple(round(v, 9) for v in bloch_vector(vec))
            for basis in sixstate.bases
            for vec in basis.vectors
        }
        axes = {
            (1, 0, 0), (-1, 0, 0),
            (0, 1, 0), (0, -1, 0),
            (0, 0, 1), (0, 0, -1),
        }
        assert points == {tuple(float(v) for v in p) for p in axes}


class TestPrimeCompleteSets:
    @pytest.mark.parametrize("d,c", [(3, 4), (5, 6), (7, 8), (11, 12)])
    def test_all_pairs_unbiased(self, d, c):
        family = prime_complete_set(d, c)
        for x in range(c):
            for y in range(x + 1, c):
                assert is_mutually_unbiased(family.bases[x], family.bases[y], 1e-10).ok

    def test_cross_overlap_value(self):
        assert max_cross_overlap(prime_complete_set(5, 6)) == pytest.approx(
            1 / math.sqrt(5), abs=1e-12
        )

    @pytest.mark.parametrize("d", (4, 6, 9, 15))
    def test_non_prime_rejected(self, d):
        with pytest.raises(InvalidParameter):
            prime_complete_set(d, 2)

    def test_too_many_bases_rejected(self):
        with pytest.raises(InvalidParameter):
            prime_complete_set(5, 7)


class TestMuFamilyProvider:
    @pytest.mark.parametrize(
        "d,c", [(2, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 2), (7, 8)]
    )
    def test_provider_outputs_unbiased_families(self, d, c):
        family = mu_basis_set(d, c)
        assert (family.c, family.d) == (c, d)
        for x in range(c):
            for y in range(x + 1, c):
                assert is_mutually_unbiased(family.bases[x], family.bases[y], 1e-10).ok

    def test_no_large_family_in_composite_dimension(self):
        with pytest.raises(InvalidParameter):
            mu_basis_set(6, 3)


class TestMemoisedSets:
    """Each named construction is built once per process and shared, which
    is safe only because a set cannot be changed through what it returns."""

    @pytest.mark.parametrize(
        "build",
        [
            qubit_six_state_set,
            qutrit_complete_set,
            lambda: mu_basis_set(2, 2),
            lambda: mu_basis_set(4, 5),
            lambda: mu_basis_set(6, 2),
            lambda: mu_basis_set(7, 8),
            lambda: prime_complete_set(5, 4),
        ],
        ids=["sixstate", "qutrit4", "mub-2-2", "mub-4-5", "mub-6-2", "mub-7-8", "prime-5-4"],
    )
    def test_second_call_returns_the_same_read_only_set(self, build):
        first = build()
        assert build() is first
        for basis in first.bases:
            arrays = [basis.matrix, basis.conj, *(v.amps for v in basis.vectors)]
            assert not any(array.flags.writeable for array in arrays)
            with pytest.raises(ValueError):
                basis.matrix[0, 0] = 0
        with pytest.raises(AttributeError):
            first.bases = ()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: mu_basis_set(6, 3),
            lambda: mu_basis_set(2, 4),
            lambda: mu_basis_set(5, 1),
            lambda: prime_complete_set(5, 7),
            lambda: prime_complete_set(9, 3),
        ],
    )
    def test_invalid_sizes_raise_every_time(self, build):
        for _ in range(3):
            with pytest.raises(InvalidParameter):
                build()


class TestNamedBasisSet:
    @pytest.mark.parametrize(
        "name,d,c,expected",
        [
            ("mub", 5, 6, lambda: mu_basis_set(5, 6)),
            ("prime", 5, 3, lambda: prime_complete_set(5, 3)),
            ("prime", 7, None, lambda: prime_complete_set(7, 8)),
            ("sixstate", None, None, qubit_six_state_set),
            ("sixstate", 7, 8, qubit_six_state_set),
            ("qutrit4", 3, 4, qutrit_complete_set),
        ],
    )
    def test_names_give_the_memoised_constructions(self, name, d, c, expected):
        assert named_basis_set(name, d, c) is expected()

    @pytest.mark.parametrize("d", [2, 6, 9])
    def test_fourier_is_the_standard_and_fourier_pair(self, d):
        pair = named_basis_set("fourier", d, 5)
        assert pair is named_basis_set("fourier", d)
        assert (pair.d, pair.c) == (d, 2)
        np.testing.assert_array_equal(pair.bases[0].matrix, standard_basis(d).matrix)
        np.testing.assert_array_equal(pair.bases[1].matrix, fourier_basis(d).matrix)

    @pytest.mark.parametrize(
        "name,d,c",
        [
            ("", 2, 3),
            ("standard", 2, 3),
            ("file:set.json", 2, 3),
            ("MUB", 2, 3),
            ("mub", None, 3),
            ("mub", 2, None),
            ("prime", None, 3),
            ("fourier", None, 2),
            ("fourier", 1, 2),
        ],
    )
    def test_other_names_and_missing_sizes_raise(self, name, d, c, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_basis_set(qubit_six_state_set(), tmp_path / "set.json")
        with pytest.raises(InvalidParameter):
            named_basis_set(name, d, c)

    @pytest.mark.parametrize("c", [-1, 0, 1, 5, 10**6])
    @pytest.mark.parametrize("name", ["mub", "prime"])
    def test_refused_sizes_raise(self, name, c):
        with pytest.raises((InvalidParameter, ConstructionError)):
            named_basis_set(name, 3, c)


class TestBreidbart:
    def test_overlap_with_ground_state(self):
        p = transition_prob(breidbart_basis().vectors[0], standard_basis(2).vectors[0])
        assert p == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-15)

    def test_equidistant_from_both_qubit_bases(self):
        breidbart = breidbart_basis()
        assert grassmannian_distance(breidbart, standard_basis(2)) == pytest.approx(
            0.25, abs=1e-12
        )
        assert grassmannian_distance(breidbart, fourier_basis(2)) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_not_unbiased_to_standard(self):
        assert not is_mutually_unbiased(standard_basis(2), breidbart_basis(), 1e-6).ok


class TestGrassmannianDistance:
    def test_identical_bases(self, qutrit4):
        for basis in qutrit4.bases:
            assert grassmannian_distance(basis, basis) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", (2, 3, 5, 6, 8))
    def test_unbiased_pair_attains_upper_bound(self, d):
        d2 = grassmannian_distance(standard_basis(d), fourier_basis(d))
        assert d2 == pytest.approx(1 - 1 / d, abs=1e-12)

    def test_rotated_qubit_basis(self):
        # plane distance of a rotation by t is sin^2(2t)/2
        for t in (math.pi / 8, 0.3, 1.1):
            rot = np.array(
                [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]], dtype=complex
            )
            from hselab.hilbert import Basis

            d2 = grassmannian_distance(standard_basis(2), Basis("rot", rot))
            assert d2 == pytest.approx(math.sin(2 * t) ** 2 / 2, abs=1e-12)

    def test_matches_embedded_operator_route(self):
        for d, seed in [(2, 5), (3, 6), (4, 7)]:
            b1 = make_random_basis(d, seed)
            b2 = make_random_basis(d, seed + 50)
            assert grassmannian_distance(b1, b2) == pytest.approx(
                distance_via_embedding(b1, b2), abs=1e-10
            )

    def test_symmetry(self):
        for seed in range(8):
            b1 = make_random_basis(3, 100 + seed)
            b2 = make_random_basis(3, 200 + seed)
            assert abs(
                grassmannian_distance(b1, b2) - grassmannian_distance(b2, b1)
            ) <= 1e-12

    def test_bounds(self):
        for d in (2, 3, 4):
            for seed in range(6):
                d2 = grassmannian_distance(
                    make_random_basis(d, 300 + seed), make_random_basis(d, 400 + seed)
                )
                assert -1e-10 <= d2 <= 1 - 1 / d + 1e-10

    def test_unitary_invariance(self):
        from hselab.hilbert import Basis

        b1 = make_random_basis(3, 501)
        b2 = make_random_basis(3, 502)
        u = make_random_basis(3, 503).matrix
        before = grassmannian_distance(b1, b2)
        after = grassmannian_distance(
            Basis("u1", u @ b1.matrix), Basis("u2", u @ b2.matrix)
        )
        assert abs(before - after) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            grassmannian_distance(standard_basis(2), standard_basis(3))


class TestAverageDistance:
    def test_qutrit_complete_with_member_eavesdropper(self, qutrit4):
        assert average_distance(qutrit4.bases[0], qutrit4) == pytest.approx(0.5, abs=1e-12)

    def test_sixstate_with_member_eavesdropper(self, sixstate):
        assert average_distance(sixstate.bases[0], sixstate) == pytest.approx(
            1 / 3, abs=1e-12
        )

    def test_single_basis_degenerate_case(self):
        # Eve's own basis adds nothing: the mean is the other member's half
        basis, other = standard_basis(3), fourier_basis(3)
        assert average_distance(basis, BasisSet([basis, other])) == pytest.approx(
            grassmannian_distance(other, basis) / 2, abs=1e-12
        )

    def test_equals_index_error_rate(self, qutrit4):
        eve = make_random_basis(3, 77)
        assert average_distance(eve, qutrit4) == pytest.approx(
            iter_rate(qutrit4, eve), abs=1e-10
        )


class TestUnbiasednessCheck:
    def test_standard_vs_fourier_d4(self):
        assert is_mutually_unbiased(standard_basis(4), fourier_basis(4), 1e-10).ok

    def test_basis_against_itself(self):
        report = is_mutually_unbiased(standard_basis(5), standard_basis(5), 1e-10)
        assert not report.ok
        assert report.max_dev == pytest.approx(1 - 1 / 5, abs=1e-12)


class TestBasisSetInvariants:
    def test_qutrit_cross_overlap(self, qutrit4):
        assert max_cross_overlap(qutrit4) == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_shared_state_rejected(self):
        with pytest.raises(InvalidParameter):
            BasisSet([standard_basis(3), Basis("copy", standard_basis(3).matrix)])

    def test_nearly_shared_state_rejected(self):
        # rotate one vector pair by an angle small enough to breach the
        # distinctness threshold
        t = math.sqrt(TAU_DISTINCT) / 10
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]], dtype=complex)
        with pytest.raises(InvalidParameter):
            BasisSet([standard_basis(2), Basis("near", rot)])

    def test_bases_of_two_dimensions_rejected(self):
        with pytest.raises(DimensionError, match="^all bases in a set must share one dimension$"):
            BasisSet([standard_basis(2), standard_basis(3)])

    def test_needs_two_bases(self):
        with pytest.raises(InvalidParameter):
            BasisSet([standard_basis(2)])

    def test_relabeling(self, sixstate):
        assert [b.label for b in sixstate.bases] == ["B0", "B1", "B2"]


class TestOnePassOverThePairs:
    """A set's checks read the figures its construction keeps from one
    Gram product per pair."""

    @pytest.fixture
    def gram_products(self, monkeypatch):
        calls = []

        def counting(b1, b2):
            calls.append((b1.label, b2.label))
            return transition_matrix(b1, b2)

        monkeypatch.setattr(bases_mod, "transition_matrix", counting)
        return calls

    def test_build_takes_one_per_pair_and_verify_none(self, gram_products, capsys):
        prime_complete_set.__wrapped__(7, 8)
        assert len(gram_products) == 8 * 7 // 2
        prime_complete_set(7, 8)  # the memoised set that verify resolves
        gram_products.clear()
        assert main(["bases", "verify", "--set", "prime", "--d", "7"]) == 0
        assert gram_products == []
        assert capsys.readouterr().out.count(": MU (") == 28

    def test_distance_reads_the_pairs_and_takes_one_per_member_with_eve(self, gram_products, capsys):
        prime_complete_set(7, 8)  # the memoised set that distance resolves
        gram_products.clear()
        assert main(["bases", "distance", "--set", "prime", "--d", "7", "--eve", "basis:0"]) == 0
        # average_distance's 8, where a second pass over the pairs took 28 more
        assert gram_products == [(f"B{x}", "B0") for x in range(8)]
        assert capsys.readouterr().out.startswith("pairwise D^2:\n")

    @pytest.mark.parametrize(
        "build",
        [
            qubit_six_state_set,
            qutrit_complete_set,
            lambda: mu_basis_set(4, 5),
            lambda: prime_complete_set(7, 8),
            lambda: named_basis_set("fourier", 6),
            lambda: make_random_set(3, 4, seed=5),
            lambda: make_random_set(5, 3, seed=6),
        ],
        ids=["sixstate", "qutrit4", "mub-4-5", "prime-7-8", "fourier-6", "random-3-4", "random-5-3"],
    )
    def test_figures_equal_the_one_pair_oracle_bit_for_bit(self, build):
        family = build()
        for x in range(family.c):
            assert family.max_transition[x, x] == family.mu_deviation[x, x] == family.miss[x, x] == 0.0
            assert family.distance[x, x] == 0.0
            for y in range(x + 1, family.c):
                bx, by = family.bases[x], family.bases[y]
                p = transition_matrix(bx, by)
                deviation = is_mutually_unbiased(bx, by, 1e-10).max_dev
                assert family.max_transition[x, y] == family.max_transition[y, x] == float(np.max(p))
                assert family.mu_deviation[x, y] == family.mu_deviation[y, x] == deviation
                assert family.miss[x, y] == family.miss[y, x] == 1.0 - np.diagonal(p).mean()
                assert family.distance[x, y] == family.distance[y, x] == grassmannian_distance(bx, by)
        for figures in (family.max_transition, family.mu_deviation, family.miss, family.distance):
            with pytest.raises(ValueError):
                figures[0, 1] = 0.0

    def test_a_biased_pair_fails_the_gate_by_name(self, monkeypatch):
        t = 1e-3
        rotated = np.eye(7, dtype=np.complex128)
        rotated[:2, :2] = [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
        quad0 = prime_complete_set(7, 8).bases[1]
        expected = is_mutually_unbiased(Basis("rotated", rotated), quad0, 1e-10)
        assert not expected.ok
        monkeypatch.setattr(bases_mod, "standard_basis", lambda d: Basis("rotated", rotated))
        message = f"bases 0 and 1 of prime_complete_set(7,8) not mutually unbiased: {expected.max_dev:.3e}"
        with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
            prime_complete_set.__wrapped__(7, 8)

    def test_non_orthonormal_member_rejected(self):
        skewed = Basis("skewed", [[1.0, 0.1], [0.0, 1.0]], validate=False)
        with pytest.raises(InvalidParameter, match="orthonormal"):
            BasisSet([standard_basis(2), skewed])


class TestLargePrimeSet:
    """The complete set at d = 61, where rates run only through the kernels."""

    def test_every_pair_is_unbiased_by_the_stored_figures(self):
        family = prime_complete_set(61, 62)
        assert np.all(family.mu_deviation[~np.eye(62, dtype=bool)] <= 1e-10)
        for x, y in [(0, 1), (0, 61), (1, 2), (17, 44), (30, 31), (60, 61)]:
            oracle = is_mutually_unbiased(family.bases[x], family.bases[y], 1e-10)
            assert family.mu_deviation[x, y] == oracle.max_dev

    @pytest.mark.parametrize("eve", [0, 31, 61])
    def test_rates_equal_the_closed_forms(self, eve):
        family = prime_complete_set(61, 62)
        report, forms = rate_report(family, family.bases[eve]), mub_closed_forms(62, 61)
        for name in ("r_qb", "r_it", "r_s", "r_t", "r_k", "r_be", "n_s"):
            assert getattr(report, name) == pytest.approx(getattr(forms, name), rel=1e-12, abs=0), name


class TestDistanceReport:
    def test_matrix_shape_and_bounds(self, qutrit4):
        assert qutrit4.distance.shape == (4, 4)
        assert np.all(np.abs(np.diagonal(qutrit4.distance)) <= 1e-12)
        assert np.all(qutrit4.distance <= 2 / 3 + 1e-10)
        assert average_distance(qutrit4.bases[0], qutrit4) == pytest.approx(0.5, abs=1e-12)


class TestFileFormat:
    def test_round_trip(self, tmp_path, qutrit4):
        path = tmp_path / "set.json"
        save_basis_set(qutrit4, path)
        loaded = load_basis_set(path)
        assert (loaded.c, loaded.d) == (4, 3)
        for original, copy in zip(qutrit4.bases, loaded.bases):
            assert np.array_equal(original.matrix, copy.matrix)

    def test_random_set_round_trip(self, tmp_path):
        family = make_random_set(4, 3, seed=9)
        path = tmp_path / "set.json"
        save_basis_set(family, path)
        loaded = load_basis_set(path)
        for original, copy in zip(family.bases, loaded.bases):
            assert np.array_equal(original.matrix, copy.matrix)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidParameter):
            load_basis_set(path)

    def test_rejects_wrong_basis_count(self, tmp_path, sixstate):
        path = tmp_path / "set.json"
        save_basis_set(sixstate, path)
        import json

        doc = json.loads(path.read_text())
        doc["c"] = 5
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParameter):
            load_basis_set(path)

    def test_rejects_nonorthonormal_vectors(self, tmp_path, sixstate):
        path = tmp_path / "set.json"
        save_basis_set(sixstate, path)
        import json

        doc = json.loads(path.read_text())
        doc["bases"][1]["vectors"][0][0] = [0.9, 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParameter):
            load_basis_set(path)

    @pytest.mark.parametrize(
        "vectors",
        [[[[1, 0]], [[0, 0]]], [[[1, 0], [0, 0]], [[1, 0]]], [[[1, 0], [0, 0]], 7]],
        ids=["one-short", "ragged", "not-a-list"],
    )
    def test_a_vector_of_the_wrong_length_is_named(self, tmp_path, vectors):
        path = tmp_path / "short.json"
        path.write_bytes(first_basis_doc(vectors))
        with pytest.raises(InvalidParameter, match="^basis 'a' has wrong vector length$"):
            load_basis_set(path)

    def test_rejects_shared_states(self, tmp_path):
        import json

        identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        doc = {
            "d": 2,
            "c": 2,
            "bases": [
                {"label": "a", "vectors": identity},
                {"label": "b", "vectors": identity},
            ],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParameter):
            load_basis_set(path)
