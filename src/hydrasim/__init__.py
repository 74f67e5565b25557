"""hydrasim: cycle-accurate simulator and fixed-point inference library for a
layer-multiplexed DNN accelerator.

One physical layer of fused multiply-accumulate units, a parallel-in-serial-out
capture stage, and a single shared activation function execute networks of any
depth sequentially.  The package provides the bit-exact fixed-point substrate,
structural datapath models, the cycle-accurate control engine, closed-form
timing models, functional golden models with a minimal trainer, and MNIST IDX
ingestion with half-folding.
"""

from .datapath import ActivationUnit, AfKind, FmaBank, build_sigmoid_lut
from .dataio import Dataset, load_dataset, load_idx_images, load_idx_labels, to_input_vector
from .engine import (
    CycleReport,
    Engine,
    TraceRecord,
    classify,
    cycle_report,
    run_inference,
)
from .errors import ConfigError, ControlFault, ParamsFileError
from .fxp import QFormat, QValue, quantize
from .model import (
    LayerParams,
    Mode,
    NetworkConfig,
    Params,
    forward_float,
    forward_quantized,
    forward_quantized_batch,
    init_params,
    load_params,
    quantize_params,
    save_params,
    train_minimal,
    validate,
)
from .timing import af_savings, per_layer_af_savings, t_parallel, t_reuse, throughput_report

__version__ = "0.1.0"

__all__ = [
    "ActivationUnit",
    "AfKind",
    "ConfigError",
    "ControlFault",
    "CycleReport",
    "Dataset",
    "Engine",
    "FmaBank",
    "LayerParams",
    "Mode",
    "NetworkConfig",
    "Params",
    "ParamsFileError",
    "QFormat",
    "QValue",
    "TraceRecord",
    "af_savings",
    "build_sigmoid_lut",
    "classify",
    "cycle_report",
    "forward_float",
    "forward_quantized",
    "forward_quantized_batch",
    "init_params",
    "load_dataset",
    "load_idx_images",
    "load_idx_labels",
    "load_params",
    "per_layer_af_savings",
    "quantize",
    "quantize_params",
    "run_inference",
    "save_params",
    "t_parallel",
    "t_reuse",
    "throughput_report",
    "to_input_vector",
    "train_minimal",
    "validate",
]
