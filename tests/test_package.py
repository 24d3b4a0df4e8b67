import hselab


def test_every_exported_name_resolves():
    assert len(set(hselab.__all__)) == len(hselab.__all__)
    for name in hselab.__all__:
        assert getattr(hselab, name) is not None, name


def test_star_import_gives_exactly_the_exports():
    namespace = {}
    exec("from hselab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hselab.__all__)


def test_removed_names_are_not_exported():
    removed = (
        "sweep",
        "BudgetError",
        "bit_transmission_rate",
        "overlap",
        "transition_prob",
        "is_mutually_unbiased",
        "amub_iter_lower_bound",
    )
    for name in removed:
        assert name not in hselab.__all__ and not hasattr(hselab, name)
