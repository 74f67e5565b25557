"""MNIST IDX ingestion and half-folding to 196-pixel input vectors.

The accelerator consumes 14x14 images (196 pixels).  Half-folding here is 2x2
non-overlapping average pooling of the 28x28 source image followed by a 1/256
scale, which keeps every pixel strictly inside [0, 1) and preserves the image
mean exactly in rational arithmetic.  2x2 max pooling and strided subsampling
are selectable for experiments.

IDX parsing is total: any byte stream yields either parsed data or one of the
typed IdxFormatError subclasses, never a partial result.  Files ending in .gz
are decompressed transparently.
"""

from __future__ import annotations

import gzip
import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fxp import QFormat, QValue, quantize

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

FOLD_MODES = ("mean", "max", "subsample")


class IdxFormatError(ValueError):
    """Base for every IDX parsing failure."""


class IdxMagicError(IdxFormatError):
    """File does not start with the expected IDX magic number."""


class IdxTruncationError(IdxFormatError):
    """File ends before the declared payload is complete."""


class IdxShapeError(IdxFormatError):
    """Declared dimensions are not the expected MNIST shape, or counts disagree."""


class IdxValueError(IdxFormatError):
    """A parsed value is outside its legal range (e.g. a label byte > 9)."""


def _read_file(path) -> bytes:
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            return fh.read()
    except (OSError, EOFError) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise IdxTruncationError(f"{path}: unreadable or truncated stream: {exc}") from exc


def _header(data: bytes, path, expected_magic: int, kind: str, fields: int) -> tuple[int, ...]:
    # Magic is validated first so a wrong file kind reports as such even when
    # the stream is shorter than the full header of the expected kind.
    if len(data) < 4:
        raise IdxTruncationError(f"{path}: {len(data)} bytes is too short for an IDX magic")
    (magic,) = struct.unpack(">I", data[:4])
    if magic != expected_magic:
        raise IdxMagicError(
            f"{path}: magic {magic:#010x} is not an IDX {kind} file ({expected_magic:#010x})"
        )
    need = 4 * (fields + 1)
    if len(data) < need:
        raise IdxTruncationError(f"{path}: {len(data)} bytes is too short for an IDX header")
    return struct.unpack(f">{fields}I", data[4:need])


def load_idx_images(path) -> np.ndarray:
    """Parse a big-endian IDX image file into uint8 images of shape [N, 28, 28]."""
    return _parse_idx_images(_read_file(path), path)


def _parse_idx_images(data: bytes, path) -> np.ndarray:
    count, rows, cols = _header(data, path, IDX_IMAGE_MAGIC, "image", 3)
    if (rows, cols) != (28, 28):
        raise IdxShapeError(f"{path}: expected 28x28 images, got {rows}x{cols}")
    payload = data[16:]
    expected = count * rows * cols
    if len(payload) < expected:
        raise IdxTruncationError(
            f"{path}: payload has {len(payload)} bytes, header declares {expected}"
        )
    if len(payload) > expected:
        raise IdxShapeError(f"{path}: {len(payload) - expected} trailing bytes after payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(count, rows, cols)


def load_idx_labels(path) -> np.ndarray:
    """Parse a big-endian IDX label file into uint8 labels 0..9 of shape [N]."""
    return _parse_idx_labels(_read_file(path), path)


def _parse_idx_labels(data: bytes, path) -> np.ndarray:
    (count,) = _header(data, path, IDX_LABEL_MAGIC, "label", 1)
    payload = data[8:]
    if len(payload) < count:
        raise IdxTruncationError(
            f"{path}: payload has {len(payload)} bytes, header declares {count}"
        )
    if len(payload) > count:
        raise IdxShapeError(f"{path}: {len(payload) - count} trailing bytes after payload")
    labels = np.frombuffer(payload, dtype=np.uint8)
    if labels.size and labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise IdxValueError(f"{path}: label {int(labels[bad])} at index {bad} is not in 0..9")
    return labels


def half_fold(img, mode: str = "mean") -> np.ndarray:
    """Reduce one 28x28 byte image to a 14x14 float64 matrix in [0, 1)."""
    img = np.asarray(img)
    if img.shape != (28, 28):
        raise ValueError(f"half_fold expects a 28x28 image, got {img.shape}")
    return _fold_batch(img[np.newaxis].astype(np.float64), mode)[0]


def _fold_batch(imgs: np.ndarray, mode: str) -> np.ndarray:
    if mode == "mean":
        # (a+b+c+d)/4/256 is exact in float64: the byte sum is an integer and
        # 1024 is a power of two.
        return imgs.reshape(-1, 14, 2, 14, 2).mean(axis=(2, 4)) / 256.0
    if mode == "max":
        return imgs.reshape(-1, 14, 2, 14, 2).max(axis=(2, 4)) / 256.0
    if mode == "subsample":
        return imgs[:, ::2, ::2] / 256.0
    raise ValueError(f"unknown fold mode {mode!r}; expected one of {FOLD_MODES}")


def to_input_vector(img14, fmt: QFormat) -> list[QValue]:
    """Row-major flatten of a 14x14 image, quantized to the engine format."""
    img14 = np.asarray(img14, dtype=np.float64)
    if img14.shape != (14, 14):
        raise ValueError(f"expected a 14x14 image, got {img14.shape}")
    return [quantize(float(v), fmt) for v in img14.reshape(-1)]


@dataclass
class Dataset:
    """Half-folded images in [0, 1) with labels and source-file digests."""

    images: np.ndarray                          # [N, 14, 14] float64
    labels: np.ndarray                          # [N] int64
    source_checksums: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def flat(self) -> np.ndarray:
        """Row-major flattened images, shape [N, 196]."""
        return self.images.reshape(len(self.images), 196)


def load_dataset(images_path, labels_path, fold: str = "mean", limit: int | None = None) -> Dataset:
    """Load and pair an IDX image/label file set, half-folding every image."""
    if limit is not None and limit < 0:
        raise ConfigError(f"limit must be >= 0, got {limit}")
    image_bytes = _read_file(images_path)
    label_bytes = _read_file(labels_path)
    raw_images = _parse_idx_images(image_bytes, images_path)
    labels = _parse_idx_labels(label_bytes, labels_path)
    if len(raw_images) != len(labels):
        raise IdxShapeError(
            f"{len(raw_images)} images but {len(labels)} labels "
            f"({images_path} / {labels_path})"
        )
    if limit is not None:
        raw_images = raw_images[:limit]
        labels = labels[:limit]
    images = _fold_batch(raw_images.astype(np.float64), fold)
    checksums = {
        str(images_path): hashlib.sha256(image_bytes).hexdigest(),
        str(labels_path): hashlib.sha256(label_bytes).hexdigest(),
    }
    return Dataset(images=images, labels=labels.astype(np.int64), source_checksums=checksums)
