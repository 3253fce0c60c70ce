"""From-scratch NHWC neural-network engine: layers, models, training.

The names imported here are its public interface.
"""

from .archs import (
    BASIC_FILTERS,
    basic_cnn_spec,
    conv_layer_count,
    softmax_flat_spec,
    vgg_style_spec,
)
from .model import (
    AvgPool,
    BatchNorm,
    Conv,
    Dense,
    Dropout,
    Flatten,
    LayerSpec,
    ModelSpec,
    Params,
    ReLU,
    Softmax,
    Workspace,
    backward_from_logits,
    forward_pass,
    init_params,
    predict,
    shape_infer,
    zero_grads,
)
from .modelio import model_from_bytes, model_to_bytes
from .train import (
    EpochStats,
    TrainConfig,
    cross_entropy,
    evaluate_accuracy,
    history_to_csv,
    one_hot_matrix,
    train,
)
