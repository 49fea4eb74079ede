"""coinforge: deterministic simulator and analysis suite for committee-based
weakening of strong asynchronous common coins."""

from .params import (
    CoinParams,
    CostReport,
    DerivedParams,
    ParamError,
    Poly,
    derive_params,
    preset_cost,
    publish_degree,
    transform_cost,
)
from .combinatorics import (
    CommitteeLayout,
    GenerationError,
    PublishGraph,
    VerificationBudgetError,
    VerifyResult,
    gen_committees,
    gen_publish_graph,
    generation_failure_bound,
    verify_committees,
    verify_publish_graph,
)
from .simnet import (
    AdversaryAction,
    AdversaryView,
    BOT,
    CoinSpec,
    Envelope,
    Simulation,
    StrategyViolation,
    TrialReport,
    run_simulation,
)
from .strategies import (
    BenorBiaserStrategy,
    CombinedStrategy,
    CommitteeTargeterStrategy,
    FifoStrategy,
    PublishDelayerStrategy,
    RandomDelayStrategy,
    Strategy,
    built_in_strategies,
)
from .protocols import (
    BenorCoinProtocol,
    CrusaderProtocol,
    MultiTransformProtocol,
    PublishProtocol,
    TransformProtocol,
    benor_strong_coin,
    elect_leader,
    ideal_strong_coin,
    per_bit_delta,
)
from .analysis import (
    AuditResult,
    FairnessEstimate,
    audit_transcript,
    estimate_fairness,
    run_trials,
    verify_anticoncentration,
    wilson_interval,
)

__version__ = "0.1.0"
