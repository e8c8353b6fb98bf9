"""Network checkpointing.

Training takes a model snapshot after every episode (§III-C); these
helpers persist a :class:`~repro.nn.network.Network` state dict to a
single ``.npz`` file.  Saving writes the live weights, which
``state_dict()`` lends read-only: nothing parameter-sized is copied.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.nn.network import Network


def save_network(network: Network, path: str | Path) -> None:
    """Write all parameter values to ``path`` (``.npz``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **network.state_dict())


def load_network(network: Network, path: str | Path) -> Network:
    """Load parameter values saved by :func:`save_network` into ``network``.

    The network must already have the right architecture; shapes are
    validated.  The file holds the saving network's dtype; values are
    cast to the loading network's, so a wider file loads by rounding.
    Returns the same network for chaining.
    """
    with np.load(Path(path)) as data:
        network.load_state_dict({k: data[k] for k in data.files})
    return network
