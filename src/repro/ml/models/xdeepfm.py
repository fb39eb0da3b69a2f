"""XDeepFM-lite: embeddings + linear + CIN + DNN, in NumPy.

The paper's CPU experiments train XDeepFM (Lian et al., KDD'18) on Criteo.
XDeepFM combines a linear term, a Compressed Interaction Network (CIN) over
field embeddings, and a DNN tower.  This implementation keeps all three
components but uses a single CIN layer (the original stacks several); that is
sufficient for the reproduction because the experiments only need (a) a model
whose per-batch compute cost is realistic relative to the batch size and (b)
a model that actually learns the synthetic Criteo-like data so the AUC-based
data-integrity checks are meaningful.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..data.dataset import Batch
from .base import Gradients, Model
from .mlp import DenseStack

__all__ = ["XDeepFMLite"]


class XDeepFMLite(Model):
    """Simplified XDeepFM for CTR prediction on tabular data.

    Parameters
    ----------
    field_cardinalities:
        Vocabulary size of each categorical field.
    num_dense:
        Number of dense features.
    embedding_dim:
        Dimension of every field embedding.
    cin_maps:
        Number of feature maps in the (single) CIN layer.
    dnn_hidden:
        Hidden layer sizes of the DNN tower.
    seed:
        Parameter initialisation seed.
    """

    def __init__(
        self,
        field_cardinalities: Sequence[int],
        num_dense: int,
        embedding_dim: int = 8,
        cin_maps: int = 8,
        dnn_hidden: Sequence[int] = (32, 16),
        seed: int = 0,
    ) -> None:
        super().__init__()
        if not field_cardinalities:
            raise ValueError("at least one categorical field is required")
        if num_dense < 0:
            raise ValueError("num_dense must be non-negative")
        if embedding_dim <= 0 or cin_maps <= 0:
            raise ValueError("embedding_dim and cin_maps must be positive")
        rng = np.random.default_rng(seed)
        self.field_cardinalities = [int(c) for c in field_cardinalities]
        self.num_fields = len(self.field_cardinalities)
        self.num_dense = int(num_dense)
        self.embedding_dim = int(embedding_dim)

        # Embedding tables and first-order (linear) weights per field.
        for j, cardinality in enumerate(self.field_cardinalities):
            self.params[f"emb.{j}"] = rng.normal(0.0, 0.05, size=(cardinality, embedding_dim))
            self.params[f"lin.{j}"] = np.zeros(cardinality)
        self.params["lin.dense"] = np.zeros(self.num_dense)
        self.params["bias"] = np.zeros(1)

        # One CIN layer: W maps pairwise field interactions to `cin_maps` maps.
        self.params["cin.w"] = rng.normal(
            0.0, 0.1, size=(cin_maps, self.num_fields, self.num_fields)
        )
        self.params["cin.out"] = rng.normal(0.0, 0.1, size=cin_maps)

        dnn_input = self.num_fields * embedding_dim + self.num_dense
        self.dnn = DenseStack(self.params, "dnn", dnn_input, dnn_hidden, 1, seed=seed + 1)

        self._cache: Optional[Dict[str, np.ndarray]] = None

    # -- forward ---------------------------------------------------------------
    def forward(self, batch: Batch) -> np.ndarray:
        if batch.categorical is None:
            raise ValueError("XDeepFMLite requires categorical features")
        if batch.categorical.shape[1] != self.num_fields:
            raise ValueError(
                f"expected {self.num_fields} categorical fields, got {batch.categorical.shape[1]}"
            )
        if batch.dense.shape[1] != self.num_dense:
            raise ValueError(
                f"expected {self.num_dense} dense features, got {batch.dense.shape[1]}"
            )
        n = len(batch)
        # Embedding lookup: (n, m, d)
        embeddings = np.stack(
            [self.params[f"emb.{j}"][batch.categorical[:, j]] for j in range(self.num_fields)],
            axis=1,
        )
        # Linear term.
        linear = self.params["bias"][0] + batch.dense @ self.params["lin.dense"]
        for j in range(self.num_fields):
            linear = linear + self.params[f"lin.{j}"][batch.categorical[:, j]]

        # CIN layer: pairwise outer interactions compressed into `cin_maps` maps.
        pairwise = embeddings[:, :, None, :] * embeddings[:, None, :, :]  # (n, m, m, d)
        maps = np.einsum("nijd,hij->nhd", pairwise, self.params["cin.w"])  # (n, H, d)
        pooled = maps.sum(axis=2)  # (n, H)
        cin_out = pooled @ self.params["cin.out"]

        # DNN tower over [flattened embeddings, dense].
        dnn_input = np.concatenate([embeddings.reshape(n, -1), batch.dense], axis=1)
        dnn_out = self.dnn.forward(dnn_input).reshape(-1)

        logits = linear + cin_out + dnn_out
        self._cache = {
            "embeddings": embeddings,
            "pairwise": pairwise,
            "pooled": pooled,
        }
        return logits

    # -- backward ----------------------------------------------------------------
    def backward(self, batch: Batch, grad_logits: np.ndarray) -> Gradients:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        if batch.categorical is None:
            raise ValueError("XDeepFMLite requires categorical features")
        grad_logits = np.asarray(grad_logits, dtype=np.float64).reshape(-1)
        n = len(batch)
        if grad_logits.shape[0] != n:
            raise ValueError("grad_logits size does not match the batch")

        embeddings = self._cache["embeddings"]
        pairwise = self._cache["pairwise"]
        pooled = self._cache["pooled"]
        grads: Gradients = {}
        grad_embeddings = np.zeros_like(embeddings)

        # Linear term gradients.
        grads["bias"] = np.array([grad_logits.sum()])
        grads["lin.dense"] = batch.dense.T @ grad_logits
        for j in range(self.num_fields):
            grad_lin = np.zeros_like(self.params[f"lin.{j}"])
            np.add.at(grad_lin, batch.categorical[:, j], grad_logits)
            grads[f"lin.{j}"] = grad_lin

        # CIN gradients.
        grads["cin.out"] = pooled.T @ grad_logits
        grad_pooled = grad_logits[:, None] * self.params["cin.out"][None, :]  # (n, H)
        grad_maps = np.repeat(grad_pooled[:, :, None], self.embedding_dim, axis=2)  # (n, H, d)
        grads["cin.w"] = np.einsum("nhd,nijd->hij", grad_maps, pairwise)
        grad_pairwise = np.einsum("nhd,hij->nijd", grad_maps, self.params["cin.w"])
        # pairwise[i, j] = emb_i * emb_j  =>  d emb_i += d pairwise[i, j] * emb_j (sum over j)
        grad_embeddings += np.einsum("nijd,njd->nid", grad_pairwise, embeddings)
        grad_embeddings += np.einsum("nijd,nid->njd", grad_pairwise, embeddings)

        # DNN gradients.
        dnn_grads, grad_dnn_input = self.dnn.backward(grad_logits.reshape(-1, 1))
        grads.update(dnn_grads)
        emb_part = grad_dnn_input[:, : self.num_fields * self.embedding_dim]
        grad_embeddings += emb_part.reshape(n, self.num_fields, self.embedding_dim)

        # Scatter embedding gradients back into the tables.
        for j in range(self.num_fields):
            table_grad = np.zeros_like(self.params[f"emb.{j}"])
            np.add.at(table_grad, batch.categorical[:, j], grad_embeddings[:, j, :])
            grads[f"emb.{j}"] = table_grad

        return grads
