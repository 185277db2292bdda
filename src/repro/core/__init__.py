"""The paper's contribution: an open ORB with protocol adaptivity and
remote access capabilities.

Module map (paper concept -> module):

================================  =======================================
Object Reference (OR), §3.1       :mod:`repro.core.objref`
Global Pointer (GP), §3.1         :mod:`repro.core.gp`
Proto-object / proto-class, §3.1  :mod:`repro.core.protocol`
Proto-pool, §3.1                  :mod:`repro.core.proto_pool`
Protocol selection, §3.2          :mod:`repro.core.selection`
Capability object, §4.1           :mod:`repro.core.capabilities`
Glue protocol object, §4.1        :mod:`repro.core.glue`
Context / ORB, §2                 :mod:`repro.core.context`,
                                  :mod:`repro.core.orb`
Object migration, §4.3            :mod:`repro.core.migration`
Load balancing, §4.3              :mod:`repro.core.loadbalance`,
                                  :mod:`repro.core.monitor`
Name service                      :mod:`repro.core.naming`
================================  =======================================
"""

from repro.core.objref import ObjectReference, ProtocolEntry
from repro.core.request import Invocation, ReplyStatus
from repro.core.protocol import (
    PROTO_CLASSES,
    ProtocolClient,
    ProtocolClass,
    register_proto_class,
)
from repro.core.proto_pool import ProtocolPool
from repro.core.selection import (
    APPLICABILITY_RULES,
    FirstMatchPolicy,
    Locality,
    SelectionPolicy,
    register_applicability_rule,
)
from repro.core.capabilities import (
    CAPABILITY_TYPES,
    Capability,
    make_capability,
)
from repro.core.gp import GlobalPointer
from repro.core.context import Context
from repro.core.orb import ORB
from repro.core.naming import NameService
from repro.core.migration import migrate
from repro.core.monitor import LoadMonitor
from repro.core.loadbalance import LoadBalancer
from repro.core.health import HealthMonitor
from repro.core.cost_policy import CostAwarePolicy
from repro.core.instrumentation import GLOBAL_HOOKS, HookBus
from repro.core.peers import PeerTable
from repro.core.resilience import (
    AttemptRecord,
    BreakerState,
    HedgePolicy,
    RetryPolicy,
)

__all__ = [
    "ObjectReference",
    "ProtocolEntry",
    "Invocation",
    "ReplyStatus",
    "PROTO_CLASSES",
    "ProtocolClient",
    "ProtocolClass",
    "register_proto_class",
    "ProtocolPool",
    "APPLICABILITY_RULES",
    "register_applicability_rule",
    "Locality",
    "SelectionPolicy",
    "FirstMatchPolicy",
    "CAPABILITY_TYPES",
    "Capability",
    "make_capability",
    "GlobalPointer",
    "Context",
    "ORB",
    "NameService",
    "migrate",
    "LoadMonitor",
    "LoadBalancer",
    "HealthMonitor",
    "CostAwarePolicy",
    "HookBus",
    "GLOBAL_HOOKS",
    "PeerTable",
    "AttemptRecord",
    "RetryPolicy",
    "HedgePolicy",
    "BreakerState",
]
