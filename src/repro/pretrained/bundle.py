"""Loading (and lazily training) the reference model bundle."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.beamloss.dataset import (
    DeblendingDataset,
    make_dataset,
    train_reference_mlp,
    train_reference_unet,
)
from repro.nn.model import Model
from repro.nn.serialization import load_weights, save_weights
from repro.nn.zoo import build_mlp, build_unet
from repro.nn.zoo.unet import UNetConfig

__all__ = [
    "DATA_DIR",
    "REFERENCE_DATASET_KWARGS",
    "ReferenceBundle",
    "reference_dataset",
    "load_reference_bundle",
]

DATA_DIR = Path(__file__).parent / "data"

#: The dataset every pre-trained model was trained on (regenerated on
#: demand — synthesis is deterministic and takes well under a second).
REFERENCE_DATASET_KWARGS = dict(n_train=1500, n_val=300, n_eval=1000, seed=0)

#: Training hyper-parameters used by tools/pretrain.py.
TRAINING_KWARGS = dict(epochs=40, batch_size=32, learning_rate=1e-3, seed=0)
MLP_TRAINING_KWARGS = dict(epochs=60, batch_size=32, learning_rate=1e-3, seed=0)
BN_TRAINING_KWARGS = dict(epochs=10, batch_size=32, learning_rate=1e-3, seed=0)


def reference_dataset() -> DeblendingDataset:
    """The canonical dataset (1,500 train / 300 val / 1,000 eval frames —
    the eval size matches the paper's "1,000 datasets" in Fig 5a)."""
    return make_dataset(**REFERENCE_DATASET_KWARGS)


@dataclass
class ReferenceBundle:
    """The deployed artefacts: dataset + trained U-Net + trained MLP.

    ``unet_bn`` is the paper's first training configuration (raw counts
    with an in-model batch-norm); it is optional because only the
    standardisation ablation needs it.
    """

    dataset: DeblendingDataset
    unet: Model
    mlp: Model
    unet_bn: Optional[Model] = None
    metadata: Optional[dict] = None


def _weights_path(name: str) -> Path:
    return DATA_DIR / f"{name}.npz"


def _names(include_bn: bool) -> List[str]:
    return ["unet", "mlp"] + (["unet_bn"] if include_bn else [])


def bundle_available(include_bn: bool = False) -> bool:
    """Whether pre-trained weight files exist on disk."""
    return all(_weights_path(n).exists() for n in _names(include_bn))


def load_reference_bundle(include_bn: bool = False,
                          train_if_missing: bool = False) -> ReferenceBundle:
    """Load the shipped pre-trained bundle.

    Parameters
    ----------
    include_bn:
        Also load the batch-norm-standardizer U-Net variant.
    train_if_missing:
        Train the models whose weight files are absent (minutes of CPU)
        and write only those files, so shipped weights are never
        replaced; otherwise a missing file raises ``FileNotFoundError``
        pointing at ``tools/pretrain.py``.
    """
    dataset = reference_dataset()
    missing = [n for n in _names(include_bn) if not _weights_path(n).exists()]
    if missing:
        if not train_if_missing:
            raise FileNotFoundError(
                f"pre-trained weights not found under {DATA_DIR}; "
                "run `python tools/pretrain.py` (or pass train_if_missing=True)"
            )
        _train_and_save(dataset, missing)

    unet = build_unet(seed=0)
    load_weights(unet, _weights_path("unet"))
    mlp = build_mlp(seed=0)
    load_weights(mlp, _weights_path("mlp"))
    unet_bn = None
    if include_bn:
        unet_bn = build_unet(UNetConfig(batchnorm_standardizer=True), seed=0)
        load_weights(unet_bn, _weights_path("unet_bn"))
    meta_path = DATA_DIR / "metadata.json"
    metadata = json.loads(meta_path.read_text()) if meta_path.exists() else None
    return ReferenceBundle(dataset=dataset, unet=unet, mlp=mlp,
                           unet_bn=unet_bn, metadata=metadata)


def train_and_save_bundle(dataset: Optional[DeblendingDataset] = None,
                          include_bn: bool = True,
                          verbose: bool = False) -> ReferenceBundle:
    """Retrain every reference model and persist them under ``DATA_DIR``
    (``tools/pretrain.py``: the explicit way to replace shipped weights)."""
    dataset = dataset or reference_dataset()
    models, metadata = _train_and_save(dataset, _names(include_bn), verbose)
    return ReferenceBundle(dataset=dataset, unet=models["unet"],
                           mlp=models["mlp"], unet_bn=models.get("unet_bn"),
                           metadata=metadata)


def _train_and_save(dataset: DeblendingDataset, names: List[str],
                    verbose: bool = False) -> Tuple[Dict[str, Model], dict]:
    """Train the *names* reference models and write their weight files.

    Their entries in ``metadata.json`` are replaced and every other
    entry is kept.  Returns the trained models by name and the metadata.
    """
    os.makedirs(DATA_DIR, exist_ok=True)
    meta_path = DATA_DIR / "metadata.json"
    metadata = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    metadata.setdefault("dataset", dict(REFERENCE_DATASET_KWARGS))
    models: Dict[str, Model] = {}
    for name in names:
        if name == "mlp":
            kwargs = MLP_TRAINING_KWARGS
            model, hist = train_reference_mlp(dataset, verbose=verbose,
                                              **kwargs)
        else:
            bn = name == "unet_bn"
            kwargs = BN_TRAINING_KWARGS if bn else TRAINING_KWARGS
            model, hist = train_reference_unet(
                dataset, batchnorm_standardizer=bn, verbose=verbose, **kwargs)
        save_weights(model, _weights_path(name))
        metadata[name] = {"final_loss": hist.final_loss,
                          "val_loss": hist.val_loss[-1], **kwargs}
        models[name] = model
    meta_path.write_text(json.dumps(metadata, indent=2))
    return models, metadata
