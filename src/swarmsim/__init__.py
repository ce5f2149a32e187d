"""Discrete-event simulator and metric library for swarming peers
serving interactive on-demand streams."""

from .errors import (
    ConfigError,
    EmptyRecordError,
    InvariantError,
    SwarmsimError,
    TraceError,
)
from .metrics import (
    DispersionCategory,
    DispersionReport,
    PopularityRecord,
    categorize_dispersion,
    merge_records,
    popularity,
    sharing_potential,
    spatial_dispersion,
    temporal_dispersion,
    workload_report,
)
from .policies import (
    CandidateInfo,
    HolderView,
    PolicyKind,
    PolicySpec,
    SelectionOutcome,
    baseline_request_target,
    capacity_check_and_reselect,
    evaluate_set_dispersion,
    optimistic_unchoke,
    select_neighbors_greedy,
    tit_for_tat_unchoke,
)
from .sim import (
    CapacityClass,
    QoSReport,
    RunResult,
    SimConfig,
    fairness,
    playback_model,
    run,
)
from .swarm import ContentSpec, SwarmConfig, TrackerState
from .workload import (
    GeneratorConfig,
    Interaction,
    InteractivityProfile,
    Request,
    Session,
    Workload,
    classify_session,
    generate_workload,
    parse_trace,
    serialize_trace,
    session_stats,
)

__version__ = "0.1.0"
