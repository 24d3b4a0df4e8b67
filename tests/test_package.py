import hselab
from hselab import errors


def test_every_exported_name_resolves():
    assert len(set(hselab.__all__)) == len(hselab.__all__)
    for name in hselab.__all__:
        assert getattr(hselab, name) is not None, name


def test_star_import_gives_exactly_the_exports():
    namespace = {}
    exec("from hselab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hselab.__all__)


def test_the_package_exports_the_error_classes_alone():
    classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert len(classes) == 9 and set(hselab.__all__) == classes


def test_removed_names_are_not_exported():
    removed = (
        "sweep",
        "BudgetError",
        "bit_transmission_rate",
        "overlap",
        "transition_prob",
        "is_mutually_unbiased",
        "amub_iter_lower_bound",
        # the package exports only the error classes: the rest is imported from its module
        "Basis",
        "BasisSet",
        "EveInterceptor",
        "ProtocolConfig",
        "RandomStream",
        "RateReport",
        "SimReport",
        "StateVector",
        "TrialOutcome",
        "average_distance",
        "bkb01_rates",
        "bob_error_rate",
        "born_sample",
        "breidbart_basis",
        "estimate_rates",
        "fourier_basis",
        "grassmannian_distance",
        "iter_rate",
        "key_rate",
        "load_basis_set",
        "max_cross_overlap",
        "mu_basis_set",
        "mub_closed_forms",
        "prime_complete_set",
        "qber",
        "qubit_six_state_set",
        "qutrit_complete_set",
        "rate_report",
        "run_trial",
        "save_basis_set",
        "simulate_bkb01",
        "standard_basis",
        "success_rate",
        "table1",
        "verify_orthonormal",
    )
    for name in removed:
        assert name not in hselab.__all__ and not hasattr(hselab, name)
