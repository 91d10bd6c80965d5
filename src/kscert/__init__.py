"""kscert: exact verification of Kochen-Specker proofs and mechanical
derivation of the state-independent noncontextuality inequalities they
induce."""

from .exact import Scalar
