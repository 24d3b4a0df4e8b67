"""Laboratory for the HSE (highly sensitive to eavesdropping) QKD protocol.

Build encoding bases, evaluate every protocol rate exactly, simulate the
protocol against an intercept-and-resend attacker in-process or across a
TCP wire, and check that simulation matches theory.  Import what you use
from its module; the package itself exports only the error classes.

- `hilbert`: state vectors, bases, transition matrices and Born sampling.
- `bases`: the basis-set constructions, the named sets, their pair
  figures and squared distances, and the JSON basis-set file format.
- `rates`: `ProtocolConfig`, every exact rate of a set under
  interception, the MU closed forms, BKB01's rates and Table 1.
- `rng`: the counter-based SplitMix64 streams every sampled path draws
  from.
- `protocol`: one trial (`run_trial`), Eve's interceptor, and the Alice
  and Bob session state.
- `montecarlo`: seeded batch simulation, estimates with z-scores against
  the exact rates, and BKB01's sampler.
- `channel`: the wire codec, memory and TCP transports, sessions and the
  intercept-and-resend relay.
- `cli`: the `hselab` command.
- `errors`: the exception classes, re-exported here.
"""

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

__version__ = "0.1.0"

__all__ = [
    "CodecError",
    "ConstructionError",
    "DimensionError",
    "HandshakeError",
    "HselabError",
    "InvalidParameter",
    "NumericalError",
    "ProtocolError",
    "SessionError",
]
