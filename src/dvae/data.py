"""Dataset ingestion: IDX file parsing, pixel binarization, per-epoch
batching, and a synthetic bars corpus for fast end-to-end tests.

IDX image files are the classic MNIST container: the big-endian uint32
magic 0x00000803, then the sizes N, rows and cols as big-endian uint32, then
the raw unsigned bytes in row-major order. Training is unsupervised, so no
other IDX type (labels among them) is read. Gzip-compressed files are not
handled; decompress first. Loaded images are held binarized as one byte per
pixel; the trainer converts each batch to float64 as it reads it.
"""

from __future__ import annotations

import io
import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from dvae.distributions import Rng

IDX_IMAGES_MAGIC = 0x00000803


class IdxFormatError(ValueError):
    """Magic number is not that of an IDX image file."""


class IdxLengthError(ValueError):
    """File is shorter or longer than its header promises."""


@dataclass
class Dataset:
    """Binarized images (N x P, entries in {0, 1}; uint8 from load_binarized,
    float64 from synthetic_bars) with their raster shape."""

    images: np.ndarray
    rows: int
    cols: int

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def p(self) -> int:
        return self.images.shape[1]


def sized(f) -> tuple:
    """(source, length): the open binary file f and its size in bytes, or,
    for a file that is not regular (a pipe, whose length is known once it
    is read), its bytes read whole into a BytesIO and their count."""
    info = os.fstat(f.fileno())
    if stat.S_ISREG(info.st_mode):
        return f, info.st_size
    blob = f.read()
    return io.BytesIO(blob), len(blob)


def load_idx(path) -> np.ndarray:
    """Parse an IDX image file into a writable uint8 array (N, rows, cols),
    the payload read straight into it (a pipe is read whole first).

    Raises IdxFormatError for any other magic number (the observed value is
    included) and IdxLengthError when the payload does not match the
    declared dimensions exactly.
    """
    with open(path, "rb") as f:
        source, length = sized(f)
        head = source.read(16)
        if length < 4:
            raise IdxLengthError(f"{path}: too short for an IDX header ({length} bytes)")
        (magic,) = struct.unpack(">I", head[:4])
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(
                f"{path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        if length < 16:
            raise IdxLengthError(f"{path}: truncated dimension header")
        dims = struct.unpack(">3I", head[4:16])
        expected = math.prod(dims)  # Python ints: no int64 wraparound
        if length - 16 != expected:
            raise IdxLengthError(
                f"{path}: payload is {length - 16} bytes, header promises {expected}")
        images = np.empty(dims, dtype=np.uint8)
        got = source.readinto(images)
    if got != expected:  # the file changed size while it was read
        raise IdxLengthError(f"{path}: payload is {got} bytes, header promises {expected}")
    return images


def write_idx(path, array: np.ndarray) -> None:
    """Write 3-D images (N, rows, cols) as an IDX image file. Round-trips
    bit-exactly through load_idx. Any value other than an integer in
    [0, 255] raises ValueError, naming the first, rather than wrapping."""
    array = np.asarray(array)
    if array.ndim != 3:
        raise ValueError(f"can only write 3-D images, got ndim={array.ndim}")
    if array.dtype != np.uint8:
        with np.errstate(invalid="ignore"):  # NaN and infinities fail the test
            bad = array[~((array >= 0) & (array <= 255) & (array % 1 == 0))]
        if bad.size:
            raise ValueError(f"IDX pixel {bad[0].item()!r} is not an integer in [0, 255]")
    array = np.ascontiguousarray(array, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">4I", IDX_IMAGES_MAGIC, *array.shape))
        f.write(array.tobytes())


def binarize(raw: np.ndarray, threshold: int = 128, out: np.ndarray | None = None) -> np.ndarray:
    """Threshold raw bytes to {0, 1} pixels: 1 where byte >= threshold.

    Returns uint8 images flattened to (N, rows*cols), one byte per pixel,
    written into the uint8 array out if given (out may be raw itself).
    The >= rule means a byte equal to the threshold maps to 1.
    """
    if not 0 < threshold < 255:
        raise ValueError(f"threshold must lie strictly inside (0, 255), got {threshold}")
    raw = np.asarray(raw)
    flat = raw.reshape(raw.shape[0], -1)
    if out is None:
        return (flat >= threshold).view(np.uint8)
    return np.greater_equal(flat, threshold, out=out.reshape(flat.shape))


def load_binarized(images_path, threshold: int = 128) -> Dataset:
    """Load and binarize an IDX image file, thresholding the bytes where
    they were read, so the file's pixels are held once. A file that holds
    no images or images of no pixels is rejected."""
    raw = load_idx(images_path)
    if raw.shape[0] == 0:
        raise ValueError(f"{images_path}: the file holds no images")
    if raw.shape[1] == 0 or raw.shape[2] == 0:
        raise ValueError(f"{images_path}: images of {raw.shape[1]} x {raw.shape[2]} "
                         "pixels hold no pixels")
    return Dataset(binarize(raw, threshold, out=raw), raw.shape[1], raw.shape[2])


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
    grid, each of the 2*side bars drawn as randint(2*side): 0..side-1 are
    rows, the rest columns."""
    if side < 2:
        raise ValueError(f"side must be >= 2, got {side}")
    images = np.zeros((n, side * side))
    for i in range(n):
        pattern = rng.randint(2 * side)
        grid = images[i].reshape(side, side)
        if pattern < side:
            grid[pattern, :] = 1.0
        else:
            grid[:, pattern - side] = 1.0
    return Dataset(images, side, side)
