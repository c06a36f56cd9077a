"""Bursty VR traffic toolkit.

Generates, transmits, reassembles, simulates, and fits application-layer
burst traffic shaped like VR video streams: logistic inter-frame intervals,
Gaussian-mixture frame sizes, and fragment-level wire framing with
best-effort reassembly.
"""

__version__ = "0.1.0"

from .generator import (
    BurstDescriptor,
    BurstGenerator,
    GeneratorConfig,
    GeneratorExhaustedError,
    SimpleBurstGenerator,
    TraceFile,
    TraceFileBurstGenerator,
    TraceParseError,
    VrBurstGenerator,
    build_generators,
    load_trace,
    save_trace,
)
from .model import (
    DEFAULT_CONSTANTS,
    DegenerateModelError,
    VrModelConstants,
    VrStreamParams,
    derive_frame_size_model,
    derive_ifi_model,
    sample_vr_frame,
    sample_vr_ifi,
)
from .rv import (
    RNG_ALGORITHM,
    Gmm2Params,
    LogisticParams,
    ParameterError,
    RngStream,
    gmm2_sample,
    logistic_cdf,
    logistic_pdf,
    logistic_quantile,
    logistic_sample,
)
from .sim import MetricsReport, ScenarioConfig, percentile, run_scenario, summarize
from .wire import (
    DEFAULT_FRAGMENT_SIZE,
    HEADER_LEN,
    BurstDiscarded,
    BurstReassembler,
    BurstReceived,
    Fragment,
    FragmentHeader,
    LateFragmentIgnored,
    decode_header,
    encode_header,
    fragment_burst,
)
