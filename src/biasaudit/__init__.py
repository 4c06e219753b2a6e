"""Group-bias audit toolkit for score-based verification systems.

Computes disaggregated detection metrics (FPR, FNR, EER, minCDet) from
raw trial scores, derives difference- and ratio-based bias measures,
aggregates them into the FDR and normalised-reliability-bias
meta-measures, and quantifies the attack exposure implied by group FPR
disparities.
"""

from .attack import (
    AttackScenario,
    GroupExposure,
    attempts_for_probability,
    compare_group_exposure,
    expected_time_to_success,
    success_probability,
)
from .config import AuditConfig, build_config, parse_config_file
from .detection import (
    BaseMetrics,
    DcfParams,
    DesignPoint,
    MetricKey,
    OperatingPoint,
    SweepCurve,
    base_metrics,
    compute_sweep,
    eer,
    error_counts,
    min_cdet,
    threshold_for_fpr,
)
from .errors import (
    AuditError,
    BadLabelError,
    ConfigError,
    DataError,
    DegenerateGroupError,
    DuplicateSpeakerError,
    EmptyFileError,
    EmptyPopulationError,
    GroupSetMismatchError,
    MissingHeaderError,
    NonFiniteScoreError,
    UnknownAttributeError,
    ZeroAggregateError,
    ZeroGroupValueError,
)
from .measures import (
    BiasMeasures,
    bias_measures,
    g2avg_log_ratio,
    g2avg_ratio,
    g2min_diff,
)
from .meta import (
    DEFAULT_ALPHAS,
    DEFAULT_DESIGN_FPRS,
    FdrResult,
    NrbResult,
    fdr,
    fdr_grid,
    nrb,
    nrb_suite,
)
from .report import BiasReport, emit, report_to_dict, run_audit
from .synth import (
    GroupScoreModel,
    SynthSpec,
    analytic_eer,
    analytic_rates_at,
    generate,
    load_synth_spec,
)
from .trials import (
    GroupedTrials,
    GroupingPolicy,
    GroupKey,
    Label,
    Scores,
    SpeakerMetadata,
    SpeakerTable,
    TrialRecord,
    TrialTable,
    assign_groups,
    load_metadata,
    load_trials,
    write_metadata,
    write_trials,
)

__version__ = "0.1.0"
