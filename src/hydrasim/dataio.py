"""MNIST IDX ingestion and half-folding to 196-pixel input vectors.

The accelerator consumes 14x14 images (196 pixels).  Half-folding here is 2x2
non-overlapping average pooling of the 28x28 source image followed by a 1/256
scale, which keeps every pixel strictly inside [0, 1) and preserves the image
mean exactly in rational arithmetic.  2x2 max pooling and strided subsampling
are selectable for experiments.

IDX parsing is total: any byte stream yields either parsed data or one of the
typed IdxFormatError subclasses, never a partial result.  Files ending in .gz
are decompressed transparently.  load_dataset reads each file once and keeps
only the folded images and their labels.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fxp import QFormat, QValue
from .model import quantize_array

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
    except (OSError, EOFError, zlib.error) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise IdxTruncationError(f"{path}: unreadable or truncated stream: {exc}") from exc


def _load_idx(path, magic: int, kind: str, dims: int) -> np.ndarray:
    """The uint8 payload of the IDX file at path, in the shape of its dims header
    counts, whose product must equal the payload length exactly."""
    data = _read_file(path)
    # Magic is validated first so a wrong file kind reports as such even when
    # the stream is shorter than the full header of the expected kind.
    if len(data) < 4:
        raise IdxTruncationError(f"{path}: {len(data)} bytes is too short for an IDX magic")
    (found,) = struct.unpack(">I", data[:4])
    if found != magic:
        raise IdxMagicError(
            f"{path}: magic {found:#010x} is not an IDX {kind} file ({magic:#010x})"
        )
    start = 4 * (dims + 1)
    if len(data) < start:
        raise IdxTruncationError(f"{path}: {len(data)} bytes is too short for an IDX header")
    shape = struct.unpack(f">{dims}I", data[4:start])
    payload, expected = data[start:], math.prod(shape)
    if len(payload) < expected:
        raise IdxTruncationError(
            f"{path}: payload has {len(payload)} bytes, header declares {expected}"
        )
    if len(payload) > expected:
        raise IdxShapeError(f"{path}: {len(payload) - expected} trailing bytes after payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def load_idx_images(path) -> np.ndarray:
    """Parse a big-endian IDX image file into uint8 images of shape [N, 28, 28]."""
    images = _load_idx(path, IDX_IMAGE_MAGIC, "image", 3)
    rows, cols = images.shape[1:]
    if (rows, cols) != (28, 28):
        raise IdxShapeError(f"{path}: expected 28x28 images, got {rows}x{cols}")
    return images


def load_idx_labels(path) -> np.ndarray:
    """Parse a big-endian IDX label file into uint8 labels 0..9 of shape [N]."""
    labels = _load_idx(path, IDX_LABEL_MAGIC, "label", 1)
    if labels.size and labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise IdxValueError(f"{path}: label {int(labels[bad])} at index {bad} is not in 0..9")
    return labels


def half_fold(img, mode: str = "mean") -> np.ndarray:
    """Reduce one 28x28 byte image to a 14x14 float64 matrix in [0, 1)."""
    img = np.asarray(img)
    if img.shape != (28, 28):
        raise ValueError(f"half_fold expects a 28x28 image, got {img.shape}")
    return _fold_batch(img[np.newaxis], mode)[0]


def _fold_batch(imgs: np.ndarray, mode: str) -> np.ndarray:
    """Fold byte images [N, 28, 28] to float64 [N, 14, 14] from their 2x2 blocks."""
    corners = (imgs[:, ::2, ::2], imgs[:, ::2, 1::2], imgs[:, 1::2, ::2], imgs[:, 1::2, 1::2])
    if mode == "mean":
        # (a+b+c+d)/1024 is exact in float64: the byte sum is an integer below
        # 2^10 and 1024 is a power of two.  Non-byte images sum in their own
        # (wider) dtype.
        return np.add.reduce(corners, dtype=np.result_type(imgs, np.uint16)) / 1024.0
    if mode == "max":
        return np.maximum.reduce(corners) / 256.0
    if mode == "subsample":
        return corners[0] / 256.0
    raise ValueError(f"unknown fold mode {mode!r}; expected one of {FOLD_MODES}")


def to_input_vector(img14, fmt: QFormat) -> list[QValue]:
    """Row-major flatten of a 14x14 image, quantized to the engine format."""
    img14 = np.asarray(img14, dtype=np.float64)
    if img14.shape != (14, 14):
        raise ValueError(f"expected a 14x14 image, got {img14.shape}")
    return [QValue(raw, fmt) for raw in quantize_array(img14, fmt).reshape(-1).tolist()]


@dataclass
class Dataset:
    """Half-folded images in [0, 1) with their labels."""

    images: np.ndarray                          # [N, 14, 14] float64
    labels: np.ndarray                          # [N] int64

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
    raw_images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(raw_images) != len(labels):
        raise IdxShapeError(
            f"{len(raw_images)} images but {len(labels)} labels "
            f"({images_path} / {labels_path})"
        )
    if limit is not None:
        raw_images = raw_images[:limit]
        labels = labels[:limit]
    return Dataset(images=_fold_batch(raw_images, fold), labels=labels.astype(np.int64))
