"""Semidirect product key exchange: platforms, protocol, and attacks.

The exchange sends only the carrier half of a holomorph power (g, phi)^x;
this package implements that engine over five concrete platforms (matrices
over a group ring, GL(r, p), tropical min-plus matrices, an additive matrix
group, and matrices of bitstrings), the derived public-key encryption
scheme, and the key-recovery procedures that break four of them at desk
scale.

Only the names used by the demos and by callers catching errors are
exported here; everything else is imported from its submodule, e.g.
``from sdpke.semirings import IntegersMod``.
"""

from .attacks import (
    dimension_attack,
    make_telescoping_attack,
    mobs_solution_count,
    mr_message_recovery,
    tropical_binsearch_attack,
)
from .errors import NotApplicableError, ParameterError, SingularMatrixError, SizeCapError
from .holomorph import sdp_exp
from .matrices import from_rows
from .permutations import Permutation
from .platforms import DhkeParams, MobsParams, random_params
from .protocol import Transcript, derive_key, keygen, mr_decrypt, mr_encrypt

__version__ = "0.1.0"

__all__ = [
    "DhkeParams",
    "MobsParams",
    "NotApplicableError",
    "ParameterError",
    "Permutation",
    "SingularMatrixError",
    "SizeCapError",
    "Transcript",
    "derive_key",
    "dimension_attack",
    "from_rows",
    "keygen",
    "make_telescoping_attack",
    "mobs_solution_count",
    "mr_decrypt",
    "mr_encrypt",
    "mr_message_recovery",
    "random_params",
    "sdp_exp",
    "tropical_binsearch_attack",
]
