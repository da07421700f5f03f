import struct

import numpy as np
import pytest

from dvae.data import (
    Dataset,
    IdxFormatError,
    IdxLengthError,
    batches,
    binarize,
    load_binarized,
    load_idx,
    synthetic_bars,
    write_idx,
)
from dvae.distributions import Rng
from helpers import traced_peak

# two 2x2 images: [[0,128],[255,7]] and [[200,127],[128,1]]
FIXTURE_IMAGE_BYTES = bytes([
    0x00, 0x00, 0x08, 0x03,              # images magic
    0x00, 0x00, 0x00, 0x02,              # N = 2
    0x00, 0x00, 0x00, 0x02,              # rows = 2
    0x00, 0x00, 0x00, 0x02,              # cols = 2
    0, 128, 255, 7,
    200, 127, 128, 1,
])

FIXTURE_LABEL_BYTES = bytes([
    0x00, 0x00, 0x08, 0x01,              # labels magic
    0x00, 0x00, 0x00, 0x02,              # N = 2
    5, 9,
])


@pytest.fixture
def mnist_size_file(tmp_path):
    """2000 random 28x28 images in an IDX file."""
    path = tmp_path / "mnist-size.idx3-ubyte"
    write_idx(path, np.random.default_rng(8).integers(0, 256, (2000, 28, 28), dtype=np.uint8))
    return path


@pytest.fixture
def image_file(tmp_path):
    path = tmp_path / "images.idx3-ubyte"
    path.write_bytes(FIXTURE_IMAGE_BYTES)
    return path


@pytest.fixture
def label_file(tmp_path):
    path = tmp_path / "labels.idx1-ubyte"
    path.write_bytes(FIXTURE_LABEL_BYTES)
    return path


class TestLoadIdx:
    def test_fixture_loads_to_exact_bytes(self, image_file):
        raw = load_idx(image_file)
        assert raw.shape == (2, 2, 2)
        assert raw.dtype == np.uint8
        assert raw.tolist() == [[[0, 128], [255, 7]], [[200, 127], [128, 1]]]

    def test_label_magic_rejected_by_image_loader(self, label_file):
        with pytest.raises(IdxFormatError) as err:
            load_idx(label_file)
        assert str(err.value) == f"{label_file}: magic 0x00000801, expected 0x00000803"

    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(bytes([0, 0, 9, 9]) + bytes(8))
        with pytest.raises(IdxFormatError) as err:
            load_idx(path)
        assert "0x00000909" in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(IdxLengthError):
            load_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(FIXTURE_IMAGE_BYTES[:-3])
        with pytest.raises(IdxLengthError):
            load_idx(path)

    def test_truncated_dimension_header(self, tmp_path):
        path = tmp_path / "hdr"
        path.write_bytes(FIXTURE_IMAGE_BYTES[:10])
        with pytest.raises(IdxLengthError):
            load_idx(path)

    def test_dimension_product_beyond_int64_is_a_length_error(self, tmp_path):
        # 2^21 * 2^21 * 2^22 = 2^64 wraps to 0 in int64, which the empty
        # payload would match
        path = tmp_path / "huge"
        path.write_bytes(struct.pack(">IIII", 0x803, 2 ** 21, 2 ** 21, 2 ** 22))
        with pytest.raises(IdxLengthError, match=f"header promises {2 ** 64}") as err:
            load_idx(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_holds_the_file_once(self, mnist_size_file):
        # the array is a view of the bytes read, not of a sliced copy of them
        size = mnist_size_file.stat().st_size
        assert traced_peak(lambda: load_idx(mnist_size_file)) <= 1.1 * size

    def test_round_trip(self, tmp_path, image_file):
        raw = load_idx(image_file)
        out = tmp_path / "copy.idx3-ubyte"
        write_idx(out, raw)
        assert out.read_bytes() == FIXTURE_IMAGE_BYTES
        assert np.array_equal(load_idx(out), raw)

    @pytest.mark.parametrize("shape", [(2,), (2, 4), (1, 2, 2, 2)])
    def test_write_takes_3d_images_only(self, tmp_path, shape):
        out = tmp_path / "x.idx"
        with pytest.raises(ValueError, match=f"3-D images, got ndim={len(shape)}"):
            write_idx(out, np.zeros(shape, dtype=np.uint8))
        assert not out.exists()

    @pytest.mark.parametrize("values, named", [
        (np.array([3, 256, -1]), "256"),
        (np.array([3, -1, 256]), "-1"),
        (np.array([0.0, 1.0, 0.7, 200.9]), "0.7"),
        (np.array([1.0, np.nan]), "nan"),
    ])
    def test_write_rejects_values_that_are_not_bytes(self, tmp_path, values, named):
        out = tmp_path / "x.idx"
        with pytest.raises(ValueError) as err:
            write_idx(out, values.reshape(1, 1, -1))
        assert str(err.value) == f"IDX pixel {named} is not an integer in [0, 255]"
        assert not out.exists()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    def test_write_round_trips_integers_in_byte_range(self, tmp_path, dtype):
        raw = np.array([[[0, 1], [128, 255]]])
        out = tmp_path / "x.idx"
        write_idx(out, raw.astype(dtype))
        assert load_idx(out).tolist() == raw.tolist()


class TestBinarize:
    def test_extremes(self):
        raw = np.array([[[0, 255]]], dtype=np.uint8)
        assert binarize(raw).tolist() == [[0.0, 1.0]]

    def test_threshold_boundary_is_inclusive(self):
        raw = np.array([[[128, 127]]], dtype=np.uint8)
        assert binarize(raw, threshold=128).tolist() == [[1.0, 0.0]]

    def test_fixture_histogram(self, image_file):
        images = binarize(load_idx(image_file), threshold=128)
        # hand count at threshold 128: [0,128,255,7] -> 2 ones, [200,127,128,1] -> 2
        assert images.sum(axis=1).tolist() == [2.0, 2.0]

    def test_threshold_domain(self):
        raw = np.zeros((1, 1, 1), dtype=np.uint8)
        with pytest.raises(ValueError):
            binarize(raw, threshold=0)
        with pytest.raises(ValueError):
            binarize(raw, threshold=255)

    def test_load_binarized_dataset(self, image_file):
        ds = load_binarized(image_file)
        assert ds.n == 2 and ds.p == 4 and ds.rows == 2 and ds.cols == 2
        assert set(np.unique(ds.images)) <= {0.0, 1.0}

    def test_load_binarized_holds_one_byte_per_pixel(self, image_file):
        ds = load_binarized(image_file)
        assert ds.images.dtype == np.uint8
        assert ds.images.tolist() == [[0, 1, 1, 0], [1, 0, 1, 0]]
        assert ds.images.nbytes == ds.n * ds.p

    def test_load_binarized_peaks_at_the_file_and_its_bytes(self, mnist_size_file):
        # the file's bytes and the thresholded ones: float64 pixels peaked at 10x
        pixels = 2000 * 28 * 28
        peak = traced_peak(lambda: load_binarized(mnist_size_file))
        assert peak <= 2.1 * pixels + 64 * 1024, peak / pixels

    def test_load_binarized_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.idx3-ubyte"
        write_idx(path, np.zeros((0, 2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="no images") as err:
            load_binarized(path)
        assert str(path) in str(err.value)


class TestBatches:
    @staticmethod
    def dataset(n):
        return Dataset(np.zeros((n, 4)), 2, 2)

    def test_partition_with_short_tail(self):
        chunks = batches(self.dataset(5), 2, Rng(1))
        assert [len(c) for c in chunks] == [2, 2, 1]
        assert sorted(np.concatenate(chunks).tolist()) == list(range(5))

    def test_same_seed_same_order(self):
        a = batches(self.dataset(12), 4, Rng(7))
        b = batches(self.dataset(12), 4, Rng(7))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_two_epochs_differ(self):
        rng = Rng(7)
        first = np.concatenate(batches(self.dataset(12), 4, rng))
        second = np.concatenate(batches(self.dataset(12), 4, rng))
        assert not np.array_equal(first, second)

    def test_every_epoch_partitions(self):
        rng = Rng(8)
        for _ in range(5):
            chunks = batches(self.dataset(11), 3, rng)
            assert sorted(np.concatenate(chunks).tolist()) == list(range(11))

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError):
            batches(self.dataset(3), 4, Rng(1))

    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError):
            batches(self.dataset(3), 0, Rng(1))


def bar_patterns(ds):
    """Each image's bar, numbered as synthetic_bars draws it: the index of
    its one full row, or side plus the index of its one full column."""
    grids = ds.images.reshape(ds.n, ds.rows, ds.cols) == 1.0
    full_rows, full_cols = grids.all(axis=2), grids.all(axis=1)
    assert np.all(full_rows.sum(axis=1) + full_cols.sum(axis=1) == 1)
    return np.where(full_rows.any(axis=1), full_rows.argmax(axis=1),
                    ds.rows + full_cols.argmax(axis=1))


class TestSyntheticBars:
    def test_each_image_has_side_ones(self):
        ds = synthetic_bars(50, 4, Rng(3))
        assert np.all(ds.images.sum(axis=1) == 4.0)
        assert ds.p == 16 and ds.rows == 4 and ds.cols == 4

    def test_bars_are_full_rows_or_columns(self):
        rng, draws = Rng(4), Rng(4)
        ds = synthetic_bars(100, 3, rng)
        for img, pattern in zip(ds.images, bar_patterns(ds)):
            assert pattern == draws.randint(6)  # one draw per image
            grid = np.zeros((3, 3))
            if pattern < 3:
                grid[pattern, :] = 1.0
            else:
                grid[:, pattern - 3] = 1.0
            assert np.array_equal(img.reshape(3, 3), grid)
        assert rng.state == draws.state

    def test_seeded_determinism(self):
        a = synthetic_bars(20, 4, Rng(5))
        b = synthetic_bars(20, 4, Rng(5))
        assert np.array_equal(a.images, b.images)

    def test_pattern_distribution_roughly_uniform(self):
        # expected 1250 per pattern; 6 sigma ~ 198
        n, side = 10_000, 4
        ds = synthetic_bars(n, side, Rng(6))
        counts = np.bincount(bar_patterns(ds), minlength=2 * side)
        expected = n / (2 * side)
        sigma = (n * (1 / (2 * side)) * (1 - 1 / (2 * side))) ** 0.5
        assert np.all(np.abs(counts - expected) < 6 * sigma)

    def test_side_too_small(self):
        with pytest.raises(ValueError):
            synthetic_bars(5, 1, Rng(1))
