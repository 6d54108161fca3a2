"""Transfer-matrix circuit simulator and inverse-design toolkit for
narrowband bandpass frequency selective surfaces built from
miniaturized-element unit cells."""

__version__ = "0.1.0"

from .analysis import (
    FrequencyGrid,
    PassbandMetrics,
    ResponseCurve,
    extract_metrics,
    network_smatrix,
    passband_freq,
    sweep_conditions,
    sweep_response,
    zero_freq,
)
from .builder import (
    DEFAULT_CALIBRATION,
    DEFAULT_GEOMETRY,
    CalibrationConstants,
    CircuitParams,
    GeometryParams,
    LayeredNetwork,
    LineSegment,
    ShuntBranch,
    build_first_order,
    build_network,
    build_second_order,
    calibrate_inductance_scale,
    grid_inductance,
    grid_resistance,
    grid_width,
    params_from_geometry,
)
from .errors import (
    BandExtractionError,
    BandNotBracketedError,
    ConfigError,
    DomainError,
    EvanescentModeError,
    FssError,
    InfeasibleSpecError,
    InfeasibleTargetError,
    OneSidedBandError,
    SingularNetworkError,
    TouchstoneError,
)
from .synthesis import (
    DesignSpec,
    FitProblem,
    FitResult,
    SynthesizedLC,
    fit_circuit,
    loss_budget_for_q,
    synthesize_lc,
    width_for_bandwidth,
)
from .touchstone import read_touchstone, write_touchstone
from .twoport import (
    C0,
    ETA0,
    NORMAL,
    IncidenceCondition,
    Polarization,
    SMatrix,
    TwoPortMatrix,
    abcd_shunt,
    abcd_tline,
    abcd_to_s,
    cascade,
    shunt_rl_admittance,
    shunt_series_rlc_admittance,
    wave_impedance,
)
