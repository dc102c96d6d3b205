"""Set contributions for gradual bipolar argumentation graphs.

Build acyclic attack/support graphs, evaluate them under modular
semantics, explain topic strengths with set contribution functions
(removal, intrinsic removal, Shapley, gradient), and stress-test those
functions against formal principles on bundled and random graphs.
"""

from .contributions import (
    DEFAULT_BUDGET,
    CoalitionGame,
    ContributionResult,
    Partition,
    Psi,
    SignMap,
    apply_set_function,
    gradient,
    intrinsic_removal,
    partition_shapley,
    removal,
    shapley,
    sign_map,
    single_contribution,
    SingleKind,
)
from .errors import (
    BudgetError,
    ContributorError,
    CycleError,
    GraphError,
    GraphFormatError,
    InfluenceDomainError,
    PartitionSpaceError,
    QbagError,
    SemanticsError,
    StrengthRangeError,
    TopicInSetError,
    UnknownArgumentError,
    UnknownFixtureError,
)
from .fixtures import FIG8_MANIFEST, FIXTURE_IDS, FIXTURES, fixture
from .graph import (
    Qbag,
    ValidationReport,
    Violation,
    can_reach,
    detach_incoming,
    dump_graph,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    influencers,
    load_graph,
    qbag,
    restrict,
    set_initial_strength,
    topological_order,
    validate,
)
from .principles import (
    MatrixCell,
    MatrixReport,
    SearchConfig,
    check_consistency,
    check_contribution_existence,
    check_counterfactuality,
    check_directionality,
    check_generalization,
    check_monotonicity,
    check_quantitative_contribution_existence,
    enumerate_partitions,
    principle_from_name,
    random_corpus,
    random_qbag,
    run_check,
    run_matrix,
    search_counterexample,
    topics_of,
    violation_fixture,
)
from .reproduce import ClaimResult, ReproduceReport, run_all, run_claims, run_some
from .review import (
    EXCLUDED,
    AspectModel,
    Polarity,
    ReviewReport,
    ReviewRow,
    aspect_model,
    build_decision_graph,
    evaluate_text_layer,
    normalize_aspect,
    report_contributions,
)
from .semantics import (
    PRESET_NAMES,
    PRESETS,
    Aggregation,
    Dual,
    Influence,
    Semantics,
    check_stability,
    euler,
    evaluate,
    evaluate_dual,
    linear,
    pmax,
    semantics_from_spec,
)
from .verdicts import Principle, PrincipleVerdict, Status, Witness

__version__ = "0.1.0"
