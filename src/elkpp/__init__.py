"""Desk-scale implementation and verification kit for edge-aware
dilated-convolution segmentation networks."""

from .tensor import Tensor, ParameterStore, backward, concat, maximum, \
    no_grad, precision, reduce, set_precision, set_verification_mode, \
    verification_mode
from .nn import ConvSpec, batch_norm, bilinear_resize, dilated_conv2d, \
    effective_kernel_extent, global_avg_pool, pad_replicate, sigmoid, softmax
from .rf import ChainLayer, Footprint, footprint_minkowski, footprint_oracle, \
    hadc_pair_valid, has_gridding, hdc_verdict, layer_chain, \
    max_distance_series, param_count
from .lkpp import HadcBlockSpec, HadcPairSpec, Lkpp, LkppConfig, \
    block_footprint, equivalent_chain
from .segnet import BackboneConfig, DecoderConfig, ElkppNet, ModelConfig
from .edge_loss import EdgeLossParams, ce_loss, ece_loss, edge_bce, \
    edge_labels, gradient_map, laplacian_template, regularizer, squash
from .metrics import ConfusionMatrix, boundary_agreement, chebyshev_dilate
from .data import SynthConfig, generate_sample, load_pgm, load_ppm, \
    load_split, mirror_flip, one_hot, save_pgm, save_ppm, to_model_input, \
    write_dataset
from .config import ConfigError, TrainConfig, config_digest, from_dict, \
    load_config, save_config, to_dict
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .train import Adam, evaluate, poly_lr, train
from .gradcheck import check_gradients, finite_difference, \
    max_relative_error

__version__ = "0.1.0"
