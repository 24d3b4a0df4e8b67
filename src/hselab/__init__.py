"""Laboratory for the HSE (highly sensitive to eavesdropping) QKD protocol.

Build encoding bases, evaluate every protocol rate exactly, simulate the
protocol against an intercept-and-resend attacker in-process or across a
TCP wire, and check that simulation matches theory.
"""

from .bases import (
    BasisSet,
    average_distance,
    breidbart_basis,
    fourier_basis,
    grassmannian_distance,
    load_basis_set,
    max_cross_overlap,
    mu_basis_set,
    prime_complete_set,
    qubit_six_state_set,
    qutrit_complete_set,
    save_basis_set,
    standard_basis,
)
from .errors import (
    CodecError,
    ConstructionError,
    DimensionError,
    HandshakeError,
    HselabError,
    InvalidParameter,
    NumericalError,
    ProtocolError,
    SessionError,
)
from .hilbert import Basis, StateVector, born_sample, verify_orthonormal
from .montecarlo import SimReport, estimate_rates, simulate_bkb01
from .protocol import EveInterceptor, TrialOutcome, run_trial
from .rates import (
    ProtocolConfig,
    RateReport,
    bkb01_rates,
    bob_error_rate,
    iter_rate,
    key_rate,
    mub_closed_forms,
    qber,
    rate_report,
    success_rate,
    table1,
)
from .rng import RandomStream

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "BasisSet",
    "CodecError",
    "ConstructionError",
    "DimensionError",
    "EveInterceptor",
    "HandshakeError",
    "HselabError",
    "InvalidParameter",
    "NumericalError",
    "ProtocolConfig",
    "ProtocolError",
    "RandomStream",
    "RateReport",
    "SessionError",
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
]
