"""qdbench: simulate and benchmark quantum-dot single-photon sources.

Generates synthetic photon-detection event streams for exciton- and
trion-based sources under cross-polarized resonant excitation, and
recovers their figures of merit (single-photon purity, indistinguishability,
brightness, lifetime, fine-structure splitting, transition type) with the
same estimation procedures used on measured data.
"""

__version__ = "0.1.0"

from .model import (
    HBAR_UEV_PS,
    SetupParams,
    SourceParams,
    SourceValidationError,
    TransitionKind,
    exciton_source,
    fss_period,
    trion_source,
)
from .dynamics import (
    PhiScanPoint,
    exciton_amplitudes,
    exciton_cross_intensity,
    peak_emission_delay,
    phi_scan_model,
)
from .photon_sim import RngSpec, sample_emission_time
from .correlation import (
    CorrelationHistogram,
    PeakEstimate,
    brightness_chain,
    build_histogram,
    corrected_overlap,
    g2_zero,
    hom_visibility,
    integrate_peaks,
)
from .inference import (
    ClassificationResult,
    DecayTrace,
    FitResult,
    classify_transition,
    fit_decay,
)
from .config import FleetConfig, load_config
from .pipeline import run_pipeline
from .report import BenchmarkSummary, SourceReport, aggregate_benchmark, emit_report
