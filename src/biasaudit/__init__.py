"""Group-bias audit toolkit for score-based verification systems.

Computes disaggregated detection metrics (FPR, FNR, EER, minCDet) from
raw trial scores, derives difference- and ratio-based bias measures,
aggregates them into the FDR and normalised-reliability-bias
meta-measures, and quantifies the attack exposure implied by group FPR
disparities.
"""

from .attack import (
    AttackScenario,
    attempts_for_probability,
    expected_time_to_success,
    exposure,
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
    FdrGrid,
    fdr,
    fdr_grid,
    nrb,
)
from .report import BiasReport, emit, report_to_dict, run_audit
from .synth import (
    GroupScoreModel,
    SynthSpec,
    analytic_eer,
    analytic_rates_at,
    draw,
    generate,
    load_synth_spec,
)
from .trials import (
    GroupedTrials,
    GroupingPolicy,
    GroupKey,
    Label,
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
