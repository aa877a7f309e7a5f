"""The paper's contribution: tunable add-on diagnostic and membership
protocols for time-triggered systems.

Modules map to the paper's sections:

* :mod:`repro.core.syndrome`, :mod:`repro.core.voting`,
  :mod:`repro.core.alignment` — the building blocks of Alg. 1 (Sec. 5);
* :mod:`repro.core.diagnostic` — the diagnostic job ``diag_i`` (Alg. 1);
* :mod:`repro.core.penalty_reward` — the p/r algorithm (Alg. 2);
* :mod:`repro.core.membership` — the membership variant (Sec. 7);
* :mod:`repro.core.lowlatency` — the system-level variant (Sec. 10);
* :mod:`repro.core.reintegration` — observation-based reintegration
  (Sec. 9 extension);
* :mod:`repro.core.config`, :mod:`repro.core.service` — configuration
  and the middleware facade.
"""

from .alignment import diagnosed_round, read_align, select_dissemination
from .bitmatrix import (
    AnalysisCache,
    BitDiagnosticMatrix,
    pack_syndrome,
    unpack_syndrome,
)
from .config import (
    AEROSPACE_PENALTY_THRESHOLD,
    AUTOMOTIVE_CRITICALITY_LEVELS,
    AUTOMOTIVE_PENALTY_THRESHOLD,
    AUTOMOTIVE_TOLERATED_OUTAGE,
    AEROSPACE_CRITICALITY_LEVELS,
    AEROSPACE_TOLERATED_OUTAGE,
    PAPER_REWARD_THRESHOLD,
    CriticalityClass,
    IsolationMode,
    ProtocolConfig,
    aerospace_config,
    automotive_config,
    uniform_config,
)
from .diagnostic import TRACE_ALL, TRACE_DECISIONS, TRACE_FAULTS, DiagnosticService
from .lowlatency import LowLatencyDiagnosticService
from .membership import MembershipService
from .penalty_reward import (
    PenaltyRewardState,
    faulty_rounds_to_isolation,
    isolation_latency_seconds,
    rounds_to_isolation,
    transient_correlation_probability,
)
from .reintegration import ReintegrationPolicy, attach_reintegration
from .service import (
    DiagnosedCluster,
    LowLatencyCluster,
    MembershipCluster,
    attach_reintegration_everywhere,
)
from .syndrome import (
    EPSILON,
    clear_intern_cache,
    intern_cache_stats,
    make_syndrome,
)
from .voting import (
    BOTTOM,
    benign_only_bound_holds,
    h_maj,
    h_maj_counts,
    vote_bound_holds,
)

__all__ = [
    "diagnosed_round",
    "read_align",
    "select_dissemination",
    "CriticalityClass",
    "IsolationMode",
    "ProtocolConfig",
    "aerospace_config",
    "automotive_config",
    "uniform_config",
    "PAPER_REWARD_THRESHOLD",
    "AUTOMOTIVE_PENALTY_THRESHOLD",
    "AEROSPACE_PENALTY_THRESHOLD",
    "AUTOMOTIVE_CRITICALITY_LEVELS",
    "AEROSPACE_CRITICALITY_LEVELS",
    "AUTOMOTIVE_TOLERATED_OUTAGE",
    "AEROSPACE_TOLERATED_OUTAGE",
    "DiagnosticService",
    "TRACE_ALL",
    "TRACE_DECISIONS",
    "TRACE_FAULTS",
    "LowLatencyDiagnosticService",
    "MembershipService",
    "PenaltyRewardState",
    "faulty_rounds_to_isolation",
    "isolation_latency_seconds",
    "rounds_to_isolation",
    "transient_correlation_probability",
    "ReintegrationPolicy",
    "attach_reintegration",
    "DiagnosedCluster",
    "LowLatencyCluster",
    "MembershipCluster",
    "attach_reintegration_everywhere",
    "EPSILON",
    "make_syndrome",
    "clear_intern_cache",
    "intern_cache_stats",
    "AnalysisCache",
    "BitDiagnosticMatrix",
    "pack_syndrome",
    "unpack_syndrome",
    "BOTTOM",
    "h_maj",
    "h_maj_counts",
    "vote_bound_holds",
    "benign_only_bound_holds",
]
