"""Protocol substrate: distributions, protocols, adversaries, compiler.

Implements the paper's Section 2.2: probabilistic protocols
``P_i : L_i -> Delta(Act_i)`` for agents and the environment, adversary
fixing for nondeterministic choices, and the bounded-horizon compiler
that turns a joint protocol into a purely probabilistic system.
"""

from .adversary import (
    Adversary,
    compile_under_adversaries,
    drift_under_adversaries,
    enumerate_adversaries,
    scale_adversary,
)
from .compiler import ENV, Config, ProtocolSystem, compile_system
from .distribution import Distribution, product
from .environment import (
    EnvironmentProtocol,
    FunctionEnvironment,
    PassiveEnvironment,
)
from .protocol import (
    AgentProtocol,
    ConstantProtocol,
    FunctionProtocol,
    TableProtocol,
    as_protocol,
    coerce_distribution,
)
from .strategies import refrain_below_threshold, relabel_actions

__all__ = [
    "Adversary",
    "AgentProtocol",
    "Config",
    "ConstantProtocol",
    "Distribution",
    "ENV",
    "EnvironmentProtocol",
    "FunctionEnvironment",
    "FunctionProtocol",
    "PassiveEnvironment",
    "ProtocolSystem",
    "TableProtocol",
    "as_protocol",
    "coerce_distribution",
    "compile_system",
    "compile_under_adversaries",
    "drift_under_adversaries",
    "enumerate_adversaries",
    "scale_adversary",
    "product",
    "refrain_below_threshold",
    "relabel_actions",
]
