"""Unit tests for the NumPy ML substrate: losses, metrics, optimizers, models, data."""

import numpy as np
import pytest

from repro.ml import (
    Adagrad,
    Batch,
    CriteoConfig,
    TabularDataset,
    XDeepFMLite,
    auc,
    bce_with_logits,
    make_criteo_like,
    scale_learning_rate,
    sigmoid,
)
from repro.ml.data.imagenet import imagenet_epoch, mini_imagenet_epoch
from repro.ml.models.cost_models import MOBILENET_V1, RESNET101


# --------------------------------------------------------------------------------- losses
def test_sigmoid_is_stable_for_large_inputs():
    values = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[1] == pytest.approx(0.5)
    assert values[2] == pytest.approx(1.0)


def test_bce_loss_and_gradient_direction():
    logits = np.array([0.0, 0.0])
    labels = np.array([1.0, 0.0])
    loss, grad = bce_with_logits(logits, labels)
    assert loss == pytest.approx(np.log(2.0))
    assert grad[0] < 0 < grad[1]


def test_bce_rejects_shape_mismatch_and_empty():
    with pytest.raises(ValueError):
        bce_with_logits(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        bce_with_logits(np.zeros(0), np.zeros(0))


def test_bce_numeric_gradient():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=5)
    labels = (rng.random(5) > 0.5).astype(float)
    _, grad = bce_with_logits(logits, labels)
    eps = 1e-6
    for i in range(5):
        bumped = logits.copy()
        bumped[i] += eps
        up, _ = bce_with_logits(bumped, labels)
        bumped[i] -= 2 * eps
        down, _ = bce_with_logits(bumped, labels)
        assert grad[i] == pytest.approx((up - down) / (2 * eps), rel=1e-4, abs=1e-8)


# --------------------------------------------------------------------------------- metrics
def test_auc_perfect_and_random_scores():
    labels = np.array([0, 0, 1, 1])
    assert auc(labels, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    assert auc(labels, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0
    assert auc(labels, np.array([0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.5)


def test_auc_requires_both_classes():
    with pytest.raises(ValueError):
        auc(np.array([1, 1]), np.array([0.5, 0.6]))


# ------------------------------------------------------------------------------- optimizers
def _quadratic_params():
    return {"w": np.array([10.0, -10.0])}


def test_adagrad_state_dict_copies_slots():
    optimizer = Adagrad(_quadratic_params(), lr=0.1)
    optimizer.step({"w": np.ones(2)})
    state = optimizer.state_dict()
    assert (state["lr"], state["steps"]) == (0.1, 1)
    optimizer.step({"w": np.ones(2)})
    assert np.allclose(state["accum"]["w"], 1.0)  # a copy, not the live slot


def test_adagrad_reduces_loss():
    params = _quadratic_params()
    optimizer = Adagrad(params, lr=1.0)
    start = np.linalg.norm(params["w"])
    for _ in range(100):
        optimizer.step({"w": 2 * params["w"]})
    assert np.linalg.norm(params["w"]) < start


def test_optimizer_rejects_unknown_parameter():
    optimizer = Adagrad(_quadratic_params(), lr=0.1)
    with pytest.raises(KeyError):
        optimizer.step({"unknown": np.zeros(2)})


def test_scale_learning_rate():
    optimizer = Adagrad(_quadratic_params(), lr=0.1)
    assert scale_learning_rate(optimizer, 0.5) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        scale_learning_rate(optimizer, 0.0)


def test_invalid_learning_rate_rejected():
    with pytest.raises(ValueError):
        Adagrad(_quadratic_params(), lr=0.0)


# ----------------------------------------------------------------------------------- models
def _numeric_gradient_check(model, batch, params_to_check=3):
    """Compare analytic gradients against central differences."""
    loss, grads = model.loss_and_gradients(batch)
    rng = np.random.default_rng(0)
    eps = 1e-5
    names = list(grads)
    for name in names[:params_to_check]:
        flat = model.params[name].reshape(-1)
        index = int(rng.integers(0, flat.size))
        original = flat[index]
        flat[index] = original + eps
        up, _ = model.loss_and_gradients(batch)
        flat[index] = original - eps
        down, _ = model.loss_and_gradients(batch)
        flat[index] = original
        numeric = (up - down) / (2 * eps)
        analytic = grads[name].reshape(-1)[index]
        assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-6), name


def test_xdeepfm_gradients_match_numeric():
    rng = np.random.default_rng(0)
    n = 12
    batch = Batch(
        dense=rng.normal(size=(n, 3)),
        labels=(rng.random(n) > 0.5).astype(float),
        categorical=rng.integers(0, 5, size=(n, 4)),
    )
    model = XDeepFMLite(field_cardinalities=[5, 5, 5, 5], num_dense=3, embedding_dim=3,
                        cin_maps=3, dnn_hidden=(6,), seed=1)
    _numeric_gradient_check(model, batch, params_to_check=6)


def test_model_learns_separable_data():
    rng = np.random.default_rng(0)
    n = 2000
    x = rng.normal(size=(n, 4))
    w_true = np.array([2.0, -1.0, 0.5, 3.0])
    labels = (x @ w_true + rng.normal(0, 0.1, n) > 0).astype(float)
    # One constant categorical field: the signal is all in the dense part.
    dataset = TabularDataset(dense=x, labels=labels,
                             categorical=np.zeros((n, 1), dtype=np.int64))
    model = XDeepFMLite(field_cardinalities=[1], num_dense=4, seed=0)
    optimizer = Adagrad(model.parameters(), lr=0.5)
    for batch in dataset.iter_batches(128, shuffle=True, rng=rng):
        _, grads = model.loss_and_gradients(batch)
        optimizer.step(grads)
    scores = model.predict_proba(dataset.read_indices(np.arange(n)))
    assert auc(labels, scores) > 0.9


def _small_xdeepfm(seed):
    return XDeepFMLite(field_cardinalities=[4, 4], num_dense=2, embedding_dim=2,
                       dnn_hidden=(8,), seed=seed)


def test_model_state_dict_is_a_copy():
    model = _small_xdeepfm(seed=0)
    state = model.state_dict()
    assert set(state) == set(model.params)
    state["bias"][0] = 99.0
    assert model.params["bias"][0] == 0.0


def test_model_num_parameters_positive():
    model = XDeepFMLite(field_cardinalities=[4, 4], num_dense=2, embedding_dim=2)
    assert model.num_parameters() == sum(p.size for p in model.params.values())


def test_model_cost_profiles():
    assert RESNET101.num_parameters > MOBILENET_V1.num_parameters
    assert RESNET101.gradient_bytes == RESNET101.num_parameters * 4.0


# --------------------------------------------------------------------------------- datasets
def test_criteo_like_generator_shapes_and_signal():
    dataset = make_criteo_like(CriteoConfig(num_samples=5000, seed=1))
    assert len(dataset) == 5000
    assert dataset.num_dense == 13
    assert dataset.num_fields == 8
    rate = dataset.labels.mean()
    assert 0.1 < rate < 0.4


def test_dataset_read_indices():
    dataset = make_criteo_like(CriteoConfig(num_samples=100, seed=0))
    batch = dataset.read_indices(np.arange(10, 30))
    assert len(batch) == 20
    assert batch.indices[0] == 10
    with pytest.raises(ValueError):
        dataset.read_indices(np.arange(95, 105))


def test_dataset_split_preserves_samples():
    dataset = make_criteo_like(CriteoConfig(num_samples=1000, seed=0))
    train, test = dataset.split(0.8)
    assert len(train) + len(test) == 1000
    assert train.field_cardinalities == dataset.field_cardinalities


def test_dataset_iter_batches_covers_everything():
    dataset = make_criteo_like(CriteoConfig(num_samples=250, seed=0))
    seen = sum(len(batch) for batch in dataset.iter_batches(64))
    assert seen == 250


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(dense=np.zeros((3, 2)), labels=np.zeros(4))


def test_imagenet_workload_descriptors():
    assert imagenet_epoch().num_samples == 1_281_167
    assert mini_imagenet_epoch(1000, epochs=2).total_samples == 2000
    with pytest.raises(ValueError):
        mini_imagenet_epoch(0)
