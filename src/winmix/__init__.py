"""winmix: window-based token mixing backbones, analysis, and training.

A small numpy/scipy library implementing hierarchical vision backbones built
from non-overlapped window mixing plus cross-window communication, with four
interchangeable intra-window aggregation layers (grouped axial linear, its
depth-wise variant, an axial MLP, and windowed multi-head attention) crossed
with three communication schemes (cyclic shift, spatial shuffle, messenger
tokens) or none. Ships with closed-form parameter/FLOP accounting, an
instrumented FLOP oracle, token-connectivity analysis, gradient checking,
a deterministic synthetic dataset, and a toy training loop.
"""

from .tensor import (
    Tensor,
    ShapeError,
    NumericError,
    GraphError,
    no_grad,
    count_macs,
    matmul,
    gelu,
    softmax_last_axis,
    layer_norm,
    backward,
    gradients,
    finite_difference_gradient,
)
from .geometry import (
    FeatureMap,
    pad_to_multiple,
    window_partition,
    window_reverse,
    cyclic_shift,
    spatial_shuffle,
    spatial_unshuffle,
    messenger_exchange,
)
from .aggregators import (
    param_shapes,
    init_param,
    aggregate,
)
from .model import (
    ModelConfig,
    Model,
    ConfigError,
    preset,
    PRESETS,
    build_model,
    table_shapes,
    forward,
    save_model,
    load_model,
)
from .analytics import (
    CostReport,
    ConnectivityReport,
    count_params,
    count_flops,
    flops_oracle,
    connectivity,
    bench_throughput,
)
from .data import DatasetSpec, SyntheticDataset, gen_dataset, nearest_centroid_accuracy
from .train import Hyperparams, TrainState, train, evaluate, save_state, load_state
from .gradcheck import model_gradcheck

__version__ = "0.1.0"
