"""Dataset ingestion: IDX file parsing, pixel binarization, per-epoch
batching, and a synthetic bars corpus for fast end-to-end tests.

IDX files are the classic MNIST container: a big-endian uint32 magic
(0x00000803 for images, with [N, rows, cols] dimension sizes following;
0x00000801 for labels, with [N]), then the dimension sizes as big-endian
uint32, then the raw unsigned bytes in row-major order. Gzip-compressed
files are not handled; decompress first.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from dvae.distributions import Rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Magic number is not an accepted IDX type."""


class IdxLengthError(ValueError):
    """File is shorter or longer than its header promises."""


@dataclass
class Dataset:
    """Binarized images (N x P, entries in {0, 1}) with their raster shape."""

    images: np.ndarray
    rows: int
    cols: int
    labels: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def p(self) -> int:
        return self.images.shape[1]


def load_idx(path, expected_magic: int | None = None) -> np.ndarray:
    """Parse an IDX file into a uint8 array, (N, rows, cols) or (N,).

    Raises IdxFormatError for an unexpected magic number (the observed value
    is included) and IdxLengthError when the payload does not match the
    declared dimensions exactly.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 4:
        raise IdxLengthError(f"{path}: too short for an IDX header ({len(blob)} bytes)")
    (magic,) = struct.unpack(">I", blob[:4])
    if magic not in (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC):
        raise IdxFormatError(f"{path}: unrecognized magic 0x{magic:08x}")
    if expected_magic is not None and magic != expected_magic:
        raise IdxFormatError(
            f"{path}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    ndims = magic & 0xFF
    header_end = 4 + 4 * ndims
    if len(blob) < header_end:
        raise IdxLengthError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{ndims}I", blob[4:header_end])
    expected = math.prod(dims) if dims else 0  # Python ints: no int64 wraparound
    payload = blob[header_end:]
    if len(payload) != expected:
        raise IdxLengthError(
            f"{path}: payload is {len(payload)} bytes, header promises {expected}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_images(path) -> np.ndarray:
    """IDX image file -> uint8 array (N, rows, cols)."""
    return load_idx(path, expected_magic=IDX_IMAGES_MAGIC)


def load_labels(path) -> np.ndarray:
    """IDX label file -> uint8 array (N,)."""
    return load_idx(path, expected_magic=IDX_LABELS_MAGIC)


def write_idx(path, array: np.ndarray) -> None:
    """Write a uint8 array as IDX; 3-D arrays become image files, 1-D label
    files. Round-trips bit-exactly through load_idx."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    if array.ndim == 3:
        magic = IDX_IMAGES_MAGIC
    elif array.ndim == 1:
        magic = IDX_LABELS_MAGIC
    else:
        raise ValueError(f"can only write 1-D labels or 3-D images, got ndim={array.ndim}")
    with open(path, "wb") as f:
        f.write(struct.pack(">I", magic))
        f.write(struct.pack(f">{array.ndim}I", *array.shape))
        f.write(array.tobytes())


def binarize(raw: np.ndarray, threshold: int = 128) -> np.ndarray:
    """Threshold raw bytes to {0, 1} pixels: 1 where byte >= threshold.

    Returns float64 images flattened to (N, rows*cols). The >= rule means a
    byte equal to the threshold maps to 1.
    """
    if not 0 < threshold < 255:
        raise ValueError(f"threshold must lie strictly inside (0, 255), got {threshold}")
    raw = np.asarray(raw)
    flat = raw.reshape(raw.shape[0], -1)
    return (flat >= threshold).astype(np.float64)


def load_binarized(images_path, labels_path=None, threshold: int = 128) -> Dataset:
    """Load and binarize an IDX image file (plus optional labels). A file
    that holds no images or images of no pixels, or labels whose count
    differs from the images', is rejected."""
    raw = load_images(images_path)
    if raw.shape[0] == 0:
        raise ValueError(f"{images_path}: the file holds no images")
    if raw.shape[1] == 0 or raw.shape[2] == 0:
        raise ValueError(f"{images_path}: images of {raw.shape[1]} x {raw.shape[2]} "
                         "pixels hold no pixels")
    labels = load_labels(labels_path).astype(np.int64) if labels_path else None
    if labels is not None and len(labels) != raw.shape[0]:
        raise ValueError(f"{labels_path}: {len(labels)} labels for "
                         f"{raw.shape[0]} images in {images_path}")
    return Dataset(binarize(raw, threshold), raw.shape[1], raw.shape[2], labels)


def batches(dataset: Dataset, batch_size: int, rng: Rng) -> list[np.ndarray]:
    """One epoch of batch index arrays: a seeded Fisher-Yates shuffle cut
    into consecutive chunks, the final short chunk kept. Together the chunks
    partition [0, N) exactly."""
    n = dataset.n
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    if batch_size > n:
        raise ValueError(f"batch size {batch_size} exceeds dataset size {n}")
    indices = np.arange(n)
    rng.shuffle(indices)
    return [indices[i:i + batch_size] for i in range(0, n, batch_size)]


def synthetic_bars(n: int, side: int, rng: Rng) -> Dataset:
    """n binary images of one full-row or full-column bar on a side x side
    grid. Labels number the 2*side patterns: 0..side-1 are rows, the rest
    columns."""
    if side < 2:
        raise ValueError(f"side must be >= 2, got {side}")
    images = np.zeros((n, side * side))
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        pattern = rng.randint(2 * side)
        grid = images[i].reshape(side, side)
        if pattern < side:
            grid[pattern, :] = 1.0
        else:
            grid[:, pattern - side] = 1.0
        labels[i] = pattern
    return Dataset(images, side, side, labels)
