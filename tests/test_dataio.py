"""IDX parsing and half-folding tests, including a totality fuzz pass."""

import hashlib
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
    half_fold,
    load_dataset,
    load_idx_images,
    load_idx_labels,
    to_input_vector,
)
from hydrasim.fxp import QFormat

Q83 = QFormat(8, 3)


# =============================================================================
# IDX parsing
# =============================================================================

def test_roundtrip_images_and_labels(tmp_path):
    images, labels = synthetic_digits(25, seed=1)
    ip = write_idx_images(tmp_path / "imgs", images)
    lp = write_idx_labels(tmp_path / "labels", labels)
    got_images = load_idx_images(ip)
    got_labels = load_idx_labels(lp)
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
    assert not half_fold(np.zeros((28, 28), np.uint8)).any()


def test_half_fold_constant_128():
    out = half_fold(np.full((28, 28), 128, np.uint8))
    assert np.all(out == 0.5)


def test_half_fold_single_block_mean():
    img = np.zeros((28, 28), np.uint8)
    img[0:2, 0:2] = [[0, 64], [128, 64]]
    out = half_fold(img)
    assert out[0, 0] == 0.25          # mean 64 scaled by 1/256
    assert not out[1:, :].any() and not out[0, 1:].any()


def test_half_fold_mean_preserved_exactly():
    rng = np.random.RandomState(3)
    for _ in range(20):
        img = rng.randint(0, 256, (28, 28)).astype(np.uint8)
        folded = half_fold(img)
        lhs = Fraction(int(img.astype(np.int64).sum()), 784 * 256)
        rhs = sum(Fraction(float(v)) for v in folded.reshape(-1)) / 196
        assert lhs == rhs


def test_half_fold_range_strictly_below_one():
    img = np.full((28, 28), 255, np.uint8)
    for mode in ("mean", "max", "subsample"):
        out = half_fold(img, mode)
        assert out.shape == (14, 14)
        assert np.all(out < 1.0) and np.all(out >= 0.0)
        assert np.all(out == 255 / 256)


def test_half_fold_max_and_subsample_modes():
    img = np.zeros((28, 28), np.uint8)
    img[0, 0] = 100
    img[0, 1] = 200
    assert half_fold(img, "max")[0, 0] == 200 / 256
    assert half_fold(img, "subsample")[0, 0] == 100 / 256
    with pytest.raises(ValueError):
        half_fold(img, "median")


def test_half_fold_shape_checked():
    with pytest.raises(ValueError):
        half_fold(np.zeros((14, 14)))


# =============================================================================
# Input vectors and Dataset
# =============================================================================

def test_to_input_vector_zeros_and_constant():
    zeros = to_input_vector(np.zeros((14, 14)), Q83)
    assert len(zeros) == 196 and all(v.raw == 0 for v in zeros)
    half = to_input_vector(np.full((14, 14), 0.5), Q83)
    assert all(v.raw == 16 for v in half)


def test_to_input_vector_row_major_order():
    img = np.zeros((14, 14))
    img[0, 1] = 0.5
    img[1, 0] = 0.25
    vec = to_input_vector(img, Q83)
    assert vec[1].raw == 16 and vec[14].raw == 8


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
    assert len(ds.source_checksums) == 2
    # batch fold equals the scalar fold
    np.testing.assert_array_equal(ds.images[0], half_fold(images[0]))


def test_load_dataset_checksums_stable(tmp_path):
    images, labels = synthetic_digits(3, seed=8)
    ip = write_idx_images(tmp_path / "imgs", images)
    lp = write_idx_labels(tmp_path / "labels", labels)
    a = load_dataset(ip, lp).source_checksums
    b = load_dataset(ip, lp).source_checksums
    assert a == b


def test_load_dataset_reads_each_file_once(tmp_path, monkeypatch):
    images, labels = synthetic_digits(3, seed=8)
    ip = write_idx_images(tmp_path / "imgs.gz", images)
    lp = write_idx_labels(tmp_path / "labels", labels)
    reads = []
    real_read = dataio._read_file
    monkeypatch.setattr(dataio, "_read_file", lambda path: reads.append(path) or real_read(path))
    ds = load_dataset(ip, lp)
    assert sorted(map(str, reads)) == sorted([str(ip), str(lp)])
    assert ds.source_checksums == {
        str(ip): hashlib.sha256(real_read(ip)).hexdigest(),
        str(lp): hashlib.sha256(lp.read_bytes()).hexdigest(),
    }


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
