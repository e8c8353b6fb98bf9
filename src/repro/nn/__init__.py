"""A small NumPy neural-network substrate.

The paper implements DRAS in TensorFlow; offline we rebuild the exact
networks with explicit forward/backward passes.  Each DRAS network has
*five layers* (§III-B): input, a convolution layer with a 1x2 filter
extracting the two features of each job/node row, two fully-connected
layers with leaky-ReLU activations, and an output layer.

The architecture detail that reproduces the paper's Table III trainable
parameter counts exactly (see DESIGN.md §4): the convolution layer and
the output layer carry biases, the two hidden fully-connected layers do
not.

Everything is batch-first: inputs are ``[B, rows, 2]``, hidden
activations ``[B, features]``.
"""

from repro.nn.layers import Conv1x2, Dense, LeakyReLU, Parameter
from repro.nn.network import Network, build_dras_network, count_parameters
from repro.nn.optim import Adam
from repro.nn.losses import (
    masked_softmax,
    mse_loss,
    policy_gradient_loss,
    sample_from_probs,
)

__all__ = [
    "Adam",
    "Conv1x2",
    "Dense",
    "LeakyReLU",
    "Network",
    "Parameter",
    "build_dras_network",
    "count_parameters",
    "masked_softmax",
    "mse_loss",
    "policy_gradient_loss",
    "sample_from_probs",
]
