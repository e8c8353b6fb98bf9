"""The ``.npz`` writer agent files are written with.

:func:`savez` writes live arrays, such as a network's weights, without
lending them (unlike ``state_dict()``, it leaves every value writable,
and the next optimizer step updates in place) or copying them (it
writes each array's own buffer).  :mod:`repro.core.persistence` builds
the one agent file on it.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import IO

import numpy as np


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
