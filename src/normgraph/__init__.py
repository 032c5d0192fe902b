"""Normal graph realizations of linear and group codes.

Construct, validate, dualize, reduce, minimize, and decode realizations of
codes over prime fields GF(p) and finite abelian groups, with the
structural duality and observability/controllability theory exposed as
checkable operations.
"""

from .alphabets import Alphabet, ProductSpace, cyclic_group, vector_space
from .analysis import (
    behavioral_ctrl_obs,
    canonical_decomposition,
    local_reduce,
    obs_ctrl,
    state_trim_status,
    trim_proper,
    verify_controllability,
)
from .decode import (
    Message,
    brute_force_app,
    decode_exact,
    decode_iterative,
    message_expand,
    message_reduce,
    sp_update,
    uniform_message,
)
from .duality import dual_fragment_check, dualize, verify_duality
from .errors import NormgraphError
from .graphcore import (
    cut_edges,
    cyclomatic_number,
    is_cut_edge,
    second_canonical_decomposition,
    two_core,
)
from .homs import Homomorphism, identity_map, negation_map
from .minimize import (
    minimize_cycle_free,
    recover_internal_states,
    state_orders,
    verify_state_space_theorem,
)
from .realization import (
    Constraint,
    GeneralSystem,
    Realization,
    StateVar,
    normalize,
)
from .serialize import dump_realization, load_realization
from .subgroups import (
    CodeSubgroup,
    QuotientMap,
    ftsp_decompose,
    full_subgroup,
    product_subgroup,
    zero_subgroup,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "ProductSpace", "cyclic_group", "vector_space",
    "CodeSubgroup", "QuotientMap", "ftsp_decompose",
    "full_subgroup", "product_subgroup", "zero_subgroup",
    "Homomorphism", "identity_map", "negation_map",
    "Realization", "Constraint", "StateVar", "GeneralSystem", "normalize",
    "dualize", "verify_duality", "dual_fragment_check",
    "trim_proper", "local_reduce", "canonical_decomposition", "obs_ctrl",
    "verify_controllability", "behavioral_ctrl_obs", "state_trim_status",
    "cut_edges", "cyclomatic_number", "is_cut_edge", "two_core",
    "second_canonical_decomposition",
    "minimize_cycle_free", "verify_state_space_theorem",
    "recover_internal_states", "state_orders",
    "Message", "uniform_message", "sp_update", "decode_exact",
    "decode_iterative", "brute_force_app", "message_reduce", "message_expand",
    "load_realization", "dump_realization",
    "NormgraphError",
]
