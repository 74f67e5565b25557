"""Shared test helpers: packed FMA columns, random cases, independent IDX writers,
synthetic datasets, MNIST discovery."""

import gzip
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from hydrasim.datapath import AfKind
from hydrasim.fxp import QValue
from hydrasim.model import LayerParams, NetworkConfig, Params


def col(bank, *raws):
    """One column of raws, packed for bank.step and bank.preload; (0, 0), the
    column of no lanes, for no raws (pack needs at least one lane)."""
    return bank.pack([raws])[0] if raws else (0, 0)


def random_quantized_case(rng, fmt, max_depth=4):
    """Random small network, raw-integer params, and a raw input vector.

    Raws are drawn uniformly over the full representable range so saturation
    and sign handling get exercised hard.
    """
    depth = int(rng.integers(1, max_depth + 1))
    sizes = [int(rng.integers(1, 15))] + [int(rng.integers(1, 11)) for _ in range(depth)]
    max_fma = max(sizes[1:]) + int(rng.integers(0, 4))
    hidden_kinds = [AfKind.RELU, AfKind.IDENTITY]
    if fmt.total_bits <= 16:
        hidden_kinds.append(AfKind.SIGMOID)
    afs = tuple(hidden_kinds[int(rng.integers(0, len(hidden_kinds)))] for _ in range(depth - 1))
    afs = afs + ((AfKind.IDENTITY, AfKind.RELU)[int(rng.integers(0, 2))],)
    cfg = NetworkConfig(tuple(sizes), max_fma=max_fma, qformat=fmt, af_per_layer=afs)
    layers = [
        LayerParams(
            rng.integers(fmt.raw_min, fmt.raw_max + 1, size=(n, k)).astype(np.int64),
            rng.integers(fmt.raw_min, fmt.raw_max + 1, size=n).astype(np.int64),
        )
        for k, n in zip(sizes[:-1], sizes[1:])
    ]
    params = Params(layers, fmt)
    x = [QValue(int(v), fmt) for v in rng.integers(fmt.raw_min, fmt.raw_max + 1, sizes[0])]
    return cfg, params, x


def write_idx_images(path, images):
    """Serialize uint8 images [N, 28, 28] as a big-endian IDX file.

    Deliberately independent of the package's parser: header packed by hand.
    """
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    blob = struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes()
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(blob)
    return path


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    blob = struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes()
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(blob)
    return path


def synthetic_digits(n, seed=0, n_classes=10, template_seed=1234):
    """Learnable stand-in dataset: one fixed random template per class + noise.

    Not MNIST; used to exercise the train/quantize/sweep machinery where the
    real dataset is not available.  Templates come from their own seed so
    train and test splits (different sample seeds) share the same classes.
    """
    t_rng = np.random.default_rng(template_seed)
    templates = t_rng.integers(0, 200, size=(n_classes, 28, 28))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    noise = rng.integers(0, 56, size=(n, 28, 28))
    images = np.clip(templates[labels] + noise, 0, 255).astype(np.uint8)
    return images, labels.astype(np.uint8)


_MNIST_NAMES = {
    "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def find_mnist():
    """Locate user-supplied MNIST IDX files (HYDRA_MNIST_DIR, ./data, repo data/).

    Returns a dict of paths or None if the dataset is not available.
    """
    candidates = []
    if os.environ.get("HYDRA_MNIST_DIR"):
        candidates.append(Path(os.environ["HYDRA_MNIST_DIR"]))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    candidates.append(Path("data"))
    for root in candidates:
        if not root.is_dir():
            continue
        found = {}
        for key, names in _MNIST_NAMES.items():
            for name in names:
                for suffix in ("", ".gz"):
                    p = root / (name + suffix)
                    if p.is_file():
                        found[key] = p
                        break
                if key in found:
                    break
        if len(found) == len(_MNIST_NAMES):
            return found
    return None


@pytest.fixture(scope="session")
def mnist_files():
    files = find_mnist()
    if files is None:
        pytest.skip(
            "MNIST IDX files not found; place train-images-idx3-ubyte(.gz) etc. "
            "under ./data or set HYDRA_MNIST_DIR"
        )
    return files


@pytest.fixture(scope="session")
def synth_dataset_dir(tmp_path_factory):
    """Session-scoped synthetic IDX dataset: 600 train + 200 test images."""
    root = tmp_path_factory.mktemp("synth_idx")
    train_imgs, train_labels = synthetic_digits(600, seed=11)
    test_imgs, test_labels = synthetic_digits(200, seed=12)
    paths = {
        "train_images": write_idx_images(root / "train-images-idx3-ubyte", train_imgs),
        "train_labels": write_idx_labels(root / "train-labels-idx1-ubyte", train_labels),
        "test_images": write_idx_images(root / "t10k-images-idx3-ubyte", test_imgs),
        "test_labels": write_idx_labels(root / "t10k-labels-idx1-ubyte", test_labels),
    }
    return paths
