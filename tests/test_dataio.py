"""IDX parsing and half-folding tests, including a totality fuzz pass."""

import re
import struct
from fractions import Fraction

import numpy as np
import pytest

import hydrasim.dataio as dataio
from conftest import synthetic_digits, write_idx_images, write_idx_labels
from hydrasim.dataio import (
    IdxFormatError,
    IdxMagicError,
    IdxShapeError,
    IdxTruncationError,
    IdxValueError,
    fold_images,
    load_dataset,
    load_idx_images,
    load_idx_labels,
    to_input_vector,
)
from hydrasim.fxp import QFormat, quantize

Q83 = QFormat(8, 3)


# =============================================================================
# IDX parsing
# =============================================================================

def test_roundtrip_images_and_labels(tmp_path):
    for n in (25, 0):   # a file of no images is a header alone
        images, labels = synthetic_digits(n, seed=1)
        ip = write_idx_images(tmp_path / "imgs", images)
        lp = write_idx_labels(tmp_path / "labels", labels)
        got_images = load_idx_images(ip)
        got_labels = load_idx_labels(lp)
        assert got_images.shape == (n, 28, 28) and got_labels.shape == (n,)
        np.testing.assert_array_equal(got_images, images)
        np.testing.assert_array_equal(got_labels, labels)


def test_gzip_transparent(tmp_path):
    images, labels = synthetic_digits(4, seed=2)
    ip = write_idx_images(tmp_path / "imgs.gz", images)
    lp = write_idx_labels(tmp_path / "labels.gz", labels)
    np.testing.assert_array_equal(load_idx_images(ip), images)
    np.testing.assert_array_equal(load_idx_labels(lp), labels)


def test_label_magic_fed_to_image_loader(tmp_path):
    path = write_idx_labels(tmp_path / "labels", [1, 2, 3])
    with pytest.raises(IdxMagicError):
        load_idx_images(path)


def test_image_magic_fed_to_label_loader(tmp_path):
    images, _ = synthetic_digits(2, seed=3)
    path = write_idx_images(tmp_path / "imgs", images)
    with pytest.raises(IdxMagicError):
        load_idx_labels(path)


def test_empty_file_is_truncation(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    with pytest.raises(IdxTruncationError):
        load_idx_images(path)
    with pytest.raises(IdxTruncationError):
        load_idx_labels(path)


def test_missing_file_is_file_not_found(tmp_path):
    for name in ("absent", "absent.gz"):
        with pytest.raises(FileNotFoundError):
            load_idx_images(tmp_path / name)


def test_file_shorter_than_its_header_is_truncation(tmp_path):
    path = tmp_path / "short"
    path.write_bytes(struct.pack(">II", 0x00000803, 1) + b"\x00\x1c")
    with pytest.raises(IdxTruncationError, match="10 bytes is too short for an IDX header"):
        load_idx_images(path)


def test_truncated_payload(tmp_path):
    images, _ = synthetic_digits(3, seed=4)
    path = write_idx_images(tmp_path / "imgs", images)
    blob = path.read_bytes()
    path.write_bytes(blob[:-100])
    with pytest.raises(IdxTruncationError):
        load_idx_images(path)


def test_trailing_bytes_rejected(tmp_path):
    images, _ = synthetic_digits(2, seed=5)
    path = write_idx_images(tmp_path / "imgs", images)
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(IdxShapeError):
        load_idx_images(path)


def test_non_28x28_dims_rejected(tmp_path):
    path = tmp_path / "odd"
    blob = struct.pack(">IIII", 0x00000803, 1, 14, 14) + bytes(196)
    path.write_bytes(blob)
    with pytest.raises(IdxShapeError):
        load_idx_images(path)


def test_out_of_range_label(tmp_path):
    path = tmp_path / "labels"
    blob = struct.pack(">II", 0x00000801, 3) + bytes([1, 12, 3])
    path.write_bytes(blob)
    with pytest.raises(IdxValueError, match="label 12 at index 1"):
        load_idx_labels(path)


def test_count_mismatch_at_dataset_assembly(tmp_path):
    images, labels = synthetic_digits(5, seed=6)
    ip = write_idx_images(tmp_path / "imgs", images)
    lp = write_idx_labels(tmp_path / "labels", labels[:3])
    with pytest.raises(IdxShapeError, match="5 images but 3 labels"):
        load_dataset(ip, lp)


def test_parsing_is_total_under_fuzz(tmp_path):
    """Any byte stream parses fully or raises a typed IdxFormatError."""
    rng = np.random.RandomState(99)
    path = tmp_path / "fuzz"
    for i in range(250):
        n = int(rng.randint(0, 64))
        blob = bytes(rng.randint(0, 256, n, dtype=np.uint8))
        if i % 3 == 0:
            # plausible header, random payload length
            blob = struct.pack(">IIII", 0x00000803, rng.randint(0, 3), 28, 28) + blob
        path.write_bytes(blob)
        for loader in (load_idx_images, load_idx_labels):
            try:
                loader(path)
            except IdxFormatError:
                pass


# =============================================================================
# Half-folding
# =============================================================================

def test_half_fold_zeros():
    assert not fold_images(np.zeros((1, 28, 28), np.uint8), "mean")[0].any()


def test_half_fold_constant_128():
    out = fold_images(np.full((1, 28, 28), 128, np.uint8), "mean")[0]
    assert np.all(out == 0.5)


def test_half_fold_single_block_mean():
    img = np.zeros((28, 28), np.uint8)
    img[0:2, 0:2] = [[0, 64], [128, 64]]
    out = fold_images(img[None], "mean")[0]
    assert out[0, 0] == 0.25          # mean 64 scaled by 1/256
    assert not out[1:, :].any() and not out[0, 1:].any()


def test_half_fold_mean_preserved_exactly():
    rng = np.random.RandomState(3)
    for _ in range(20):
        img = rng.randint(0, 256, (28, 28)).astype(np.uint8)
        folded = fold_images(img[None], "mean")[0]
        lhs = Fraction(int(img.astype(np.int64).sum()), 784 * 256)
        rhs = sum(Fraction(float(v)) for v in folded.reshape(-1)) / 196
        assert lhs == rhs


def test_half_fold_range_strictly_below_one():
    img = np.full((28, 28), 255, np.uint8)
    for mode in ("mean", "max", "subsample"):
        out = fold_images(img[None], mode)[0]
        assert out.shape == (14, 14)
        assert np.all(out < 1.0) and np.all(out >= 0.0)
        assert np.all(out == 255 / 256)


@pytest.mark.parametrize("mode, s", [("mean", 10), ("max", 8), ("subsample", 8)])
def test_fold_codes_are_the_exact_numerators_of_the_fold(mode, s):
    images = np.random.default_rng(2).integers(0, 256, (7, 28, 28), dtype=np.uint8)
    images[0] = 255   # the largest code of each mode
    codes, bits = dataio.fold_codes(images, mode)
    assert bits == s and codes.dtype == np.uint16 and codes.shape == (7, 14, 14)
    assert int(codes.max()) == (1020 if mode == "mean" else 255) < 1 << s
    np.testing.assert_array_equal(fold_images(images, mode) * (1 << s), codes)   # exact scaling


def _mean_fold_in_corner_order(imgs):
    """The mean fold as ((a + b) + c) + d over the 2x2 corners, in uint16."""
    a, b, c, d = (imgs[:, i::2, j::2].astype(np.uint16) for i in (0, 1) for j in (0, 1))
    return (((a + b) + c) + d) / 1024.0


@pytest.mark.parametrize("images", [
    np.zeros((3, 28, 28), np.uint8),
    np.full((3, 28, 28), 255, np.uint8),
    np.random.default_rng(1).integers(0, 256, (40, 28, 28), dtype=np.uint8),
], ids=["uint8-0", "uint8-255", "uint8"])
def test_mean_fold_equals_the_corner_order_sum(images):
    got = dataio.fold_images(images, "mean")
    want = _mean_fold_in_corner_order(images)
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(fold_images(images[-1][None], "mean")[0], want[-1])


@pytest.mark.parametrize("dtype", ["float64", "uint16", "int64", "bool"])
def test_fold_rejects_a_non_byte_image(dtype):
    # A uint16 image would wrap its 2x2 sums: 4 * 65535 is past 2^16.
    img = np.ones((28, 28), dtype)
    for mode in dataio.FOLD_MODES:
        with pytest.raises(ValueError, match=f"needs uint8 byte images, got {dtype}"):
            fold_images(img[None], mode)


def test_half_fold_max_and_subsample_modes():
    img = np.zeros((28, 28), np.uint8)
    img[0, 0] = 100
    img[0, 1] = 200
    assert fold_images(img[None], "max")[0][0, 0] == 200 / 256
    assert fold_images(img[None], "subsample")[0][0, 0] == 100 / 256
    with pytest.raises(ValueError):
        fold_images(img[None], "median")[0]


# =============================================================================
# Input vectors and Dataset
# =============================================================================

def test_to_input_vector_zeros_and_constant():
    zeros = to_input_vector(np.zeros((14, 14)), Q83)
    assert len(zeros) == 196 and all(v.raw == 0 for v in zeros)
    half = to_input_vector(np.full((14, 14), 0.5), Q83)
    assert all(v.raw == 16 for v in half)


@pytest.mark.parametrize("shape", [(196,), (28, 28), (14, 13)])
def test_to_input_vector_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match=re.escape(f"expected a 14x14 image, got {shape}")):
        to_input_vector(np.zeros(shape), Q83)


def test_to_input_vector_row_major_order():
    img = np.zeros((14, 14))
    img[0, 1] = 0.5
    img[1, 0] = 0.25
    vec = to_input_vector(img, Q83)
    assert vec[1].raw == 16 and vec[14].raw == 8


@pytest.mark.filterwarnings("ignore:nonstandard bit-width")
@pytest.mark.parametrize("total_bits", [4, 8, 16, 32, 64])
def test_to_input_vector_matches_scalar_quantize(total_bits):
    fmt = QFormat(total_bits, 3)
    res = fmt.resolution
    values = [(k + 0.5) * res for k in range(-8, 8)]                        # ties, both signs
    values += [fmt.min_value, fmt.max_value, 2 * fmt.min_value, 2 * fmt.max_value,
               (fmt.raw_max + 0.5) * res, (fmt.raw_min - 0.5) * res]        # both rails
    values += list(np.random.default_rng(total_bits).uniform(-5.0, 5.0, 196 - len(values)))
    vec = to_input_vector(np.array(values).reshape(14, 14), fmt)
    assert all(v.fmt == fmt for v in vec)
    assert [v.raw for v in vec] == [quantize(float(x), fmt).raw for x in values]


def test_load_dataset_end_to_end(tmp_path):
    images, labels = synthetic_digits(30, seed=7)
    ip = write_idx_images(tmp_path / "imgs", images)
    lp = write_idx_labels(tmp_path / "labels", labels)
    ds = load_dataset(ip, lp, limit=20)
    assert len(ds) == 20
    assert ds.images.shape == (20, 14, 14)
    assert ds.flat.shape == (20, 196)
    assert np.all(ds.images >= 0.0) and np.all(ds.images < 1.0)
    assert np.all(ds.labels < 10)
    # Each pixel is its 2x2 byte sum over 1024, summed here in Python ints.
    want = [[[sum(int(img[2 * r + dr][2 * c + dc]) for dr in (0, 1) for dc in (0, 1)) / 1024
              for c in range(14)] for r in range(14)] for img in images[:20].tolist()]
    assert ds.images.tolist() == want
    assert ds.labels.tolist() == labels[:20].tolist()


def test_load_dataset_reads_each_file_once(tmp_path, monkeypatch):
    images, labels = synthetic_digits(3, seed=8)
    ip = write_idx_images(tmp_path / "imgs.gz", images)
    lp = write_idx_labels(tmp_path / "labels", labels)
    reads = []
    real_read = dataio._read_file
    monkeypatch.setattr(dataio, "_read_file", lambda path: reads.append(path) or real_read(path))
    load_dataset(ip, lp)
    assert sorted(map(str, reads)) == sorted([str(ip), str(lp)])


def test_load_dataset_negative_limit_rejected(tmp_path):
    images, labels = synthetic_digits(3, seed=8)
    ip = write_idx_images(tmp_path / "imgs", images)
    lp = write_idx_labels(tmp_path / "labels", labels)
    with pytest.raises(ValueError, match="limit"):
        load_dataset(ip, lp, limit=-1)


# =============================================================================
# Published-file properties (need the real dataset)
# =============================================================================

def test_official_t10k_files_parse(mnist_files):
    images = load_idx_images(mnist_files["test_images"])
    labels = load_idx_labels(mnist_files["test_labels"])
    assert len(images) == 10000
    assert len(labels) == 10000
