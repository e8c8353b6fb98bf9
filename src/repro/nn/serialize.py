"""Network checkpointing.

These helpers persist a :class:`~repro.nn.network.Network`'s weights
to a single ``.npz`` file, keyed as
:meth:`~repro.nn.network.Network.state_dict` keys them.  Saving reads
the live weights and is done before they next change, so it neither
lends them (unlike ``state_dict()``, it leaves every value writable,
and the next optimizer step updates in place) nor copies them
(:func:`savez` writes each array's own buffer).
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import IO

import numpy as np

from repro.nn.network import Network


def savez(file: str | Path | IO[bytes], arrays: dict[str, np.ndarray]) -> None:
    """``np.savez(file, **arrays)``, writing each array's own buffer.

    ``np.savez`` streams an array into its zip member through
    ``tobytes`` copies of up to 16 MiB each; this writes the buffer
    itself, so saving holds nothing beyond the arrays it saves.  The
    archive is the same: stored ``<key>.npy`` members, version 1.0
    headers, read back by ``np.load``.  A path is used as given (no
    ``.npz`` is appended), and object arrays, which ``np.savez`` would
    pickle, are refused.
    """
    with zipfile.ZipFile(file, mode="w", compression=zipfile.ZIP_STORED,
                         allowZip64=True) as archive:
        for key, value in arrays.items():
            value = np.asarray(value)
            if value.dtype.hasobject:
                raise TypeError(f"{key}: object arrays are not saved")
            header = np.lib.format.header_data_from_array_1_0(value)
            order = "F" if header["fortran_order"] else "C"
            with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                # a view of a contiguous array; non-contiguous ones copy
                member.write(value.ravel(order).view(np.uint8))


def save_network(network: Network, path: str | Path) -> None:
    """Write all parameter values to ``path`` (``.npz`` is appended if
    missing, as ``np.savez`` does)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    params = network.named_parameters()
    savez(path, {k: p.value for k, p in params.items()})


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
