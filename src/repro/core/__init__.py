"""Core machinery: pps trees, facts, beliefs, constraints, and the theorems.

This subpackage is a faithful executable rendering of the paper's
Sections 2–7: purely probabilistic systems as finite labelled trees,
facts as point sets, posterior beliefs, proper actions, local-state
independence, probabilistic constraints, and exact checkers for every
theorem.
"""

from .actions import (
    action_state_partition,
    action_states,
    ensure_proper,
    is_deterministic_action,
    is_proper,
    performance_state,
    performance_time,
    performance_times,
    performing_runs,
    runs_performing_at_state,
)
from .at_operators import action_at_local_state, at_action, at_local_state
from .atoms import (
    FALSE,
    TRUE,
    at_time,
    does_,
    env_fact,
    local_fact,
    local_state_occurs,
    performed,
    state_fact,
)
from .beliefs import (
    belief,
    belief_at,
    belief_at_action,
    belief_profile,
    belief_random_variable,
    occurrence_event,
    threshold_met_event,
    threshold_met_measure,
    threshold_met_measures,
)
from .builder import NodeHandle, PPSBuilder
from .common_belief import (
    Believes,
    CommonBelief,
    EveryoneBelieves,
    believes,
    common_belief,
    common_belief_points,
    everyone_believes,
)
from .constraints import ProbabilisticConstraint, achieved_probability
from .engine import SystemIndex
from .errors import (
    CompilationError,
    ConditioningOnNullEventError,
    FaultExhaustedError,
    FaultSpecError,
    FormulaError,
    ImproperActionError,
    IndependenceError,
    InvalidSystemError,
    NotStochasticError,
    ReproError,
    ShmIntegrityError,
    SynchronyViolationError,
    UnknownAgentError,
    UnknownLocalStateError,
    ZeroProbabilityError,
)
from .faults import (
    DegradationEvent,
    FaultPlan,
    ResilienceReport,
    RetryEvent,
    fault_plan,
    record_degradation,
    reset_resilience_report,
    resilience_report,
    set_fault_plan,
)
from .expectation import (
    BeliefCell,
    expected_belief,
    expected_belief_decomposition,
    jeffrey_conditional,
)
from .facts import (
    And,
    Fact,
    LambdaFact,
    LambdaRunFact,
    Not,
    Or,
    RunFact,
    always,
    eventually,
    fact_equivalent,
    points_satisfying,
    runs_satisfying,
)
from .independence import (
    IndependenceWitness,
    independence_report,
    is_local_state_independent,
    is_past_based,
    is_run_based,
    lemma_4_3_applies,
)
from .knowledge import (
    CommonKnowledge,
    EveryoneKnows,
    Knows,
    common_knowledge,
    everyone_knows,
    indistinguishable_points,
    knowledge_partition,
    knows,
)
from .kop import KoPReport, check_kop, is_necessary_condition
from .measure import (
    Event,
    all_runs,
    complement,
    conditional,
    empty_event,
    event_where,
    expectation,
    intersect,
    is_partition,
    probability,
    total_probability,
    union,
)
from .lazyprob import (
    NUMERIC_MODES,
    LazyProb,
    NumericStats,
    approx_value,
    check_numeric_mode,
    escalation_count,
    exact_value,
    numeric_stats,
    reset_numeric_stats,
)
from .numeric import (
    ONE,
    ZERO,
    InexactSqrtError,
    Probability,
    ProbabilityLike,
    as_fraction,
    as_probability,
    exact_sqrt,
    sqrt_fraction,
    sqrt_fraction_with_exactness,
)
from .optimality import (
    FrontierPoint,
    achievable_frontier,
    is_belief_optimal,
    optimal_acting_states,
)
from .pak import PAKReport, analyze
from .pps import (
    PPS,
    Action,
    ActionOverlay,
    AgentId,
    DerivedPPS,
    GlobalState,
    LocalState,
    Node,
    OverlayRun,
    ProbabilityOverlay,
    ReweightedPPS,
    Run,
)
from .reweight import condition_on, materialize, reweight_edges
from .theorems import (
    TheoremCheck,
    check_corollary_7_2,
    check_lemma_4_3,
    check_lemma_5_1,
    check_lemma_f_1,
    check_theorem_4_2,
    check_theorem_6_2,
    check_theorem_7_1,
    pak_level,
    pak_level_with_exactness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
