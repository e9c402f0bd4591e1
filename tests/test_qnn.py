import math
from dataclasses import replace

import numpy as np
import pytest
import statevector
from helpers import layering_oracle, stdout_at_blas_threads
from hypothesis import given, settings
from hypothesis import strategies as st

import qmlrobust
from qmlrobust.data import FeatureMatrix
from qmlrobust.optim import EPS_STABILIZER, AdamState, adam_step, epoch_record, mean_hinge_loss
from qmlrobust.qnn import (
    QnnModel,
    _block_rows,
    _grad,
    _half_angles,
    _scores,
    build_model_circuit,
    init_params,
    load_qnn,
    parameter_shift_grad,
    qnn_scores,
    save_qnn,
    train_qnn,
)
from qmlrobust.simulator import expectation_z, run_circuit


def model_with(n, layers, params=None, seed=0):
    if params is None:
        params = np.random.default_rng(seed).uniform(0, np.pi, size=n * layers)
    return QnnModel(n_qubits=n, n_layers=layers, params=np.asarray(params, dtype=float))


SHIFT = math.pi / 2  # exact-gradient shift for RY parameters


def qnn_score_grad(model, x):
    """d<Z>/dtheta for one sample by the two-point shift rule on the gate-list simulator."""
    grad = np.empty(model.n_params)
    for j in range(model.n_params):
        scores = []
        for delta in (SHIFT, -SHIFT):
            params = model.params.copy()
            params[j] += delta
            circuit = build_model_circuit(replace(model, params=params), x)
            scores.append(expectation_z(run_circuit(circuit), model.readout_qubit))
        grad[j] = (scores[0] - scores[1]) / 2.0
    return grad


def finite_difference_grad(model, X, y, step=1e-4):
    grad = np.zeros(model.n_params)
    for j in range(model.n_params):
        plus = model.params.copy()
        plus[j] += step
        minus = model.params.copy()
        minus[j] -= step
        loss_p = mean_hinge_loss(y, qnn_scores(QnnModel(model.n_qubits, model.n_layers, plus), X))
        loss_m = mean_hinge_loss(y, qnn_scores(QnnModel(model.n_qubits, model.n_layers, minus), X))
        grad[j] = (loss_p - loss_m) / (2 * step)
    return grad


def kink_adjacent(model, X, y, tol=1e-3):
    return bool(np.any(np.abs(y * qnn_scores(model, X) - 1.0) < tol))


def rotate_reference(psi, angles):
    """RY(angles[q]) on every qubit q of a real (rows, 2**n) state, one butterfly per qubit."""
    psi = psi.copy()
    for q, angle in enumerate(angles):
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        pairs = psi.reshape(-1, 2, 2**q)
        a0, a1 = pairs[:, 0].copy(), pairs[:, 1].copy()
        pairs[:, 0] = c * a0 - s * a1
        pairs[:, 1] = s * a0 + c * a1
    return psi


# --- circuit construction ---------------------------------------------------


def test_gate_count_four_qubits_two_layers():
    model = model_with(4, 2)
    circuit = build_model_circuit(model, np.zeros(4))
    assert len(circuit.gates) == 4 + 2 * (4 + 3)


def test_all_zero_model_is_identity():
    model = model_with(3, 2, params=np.zeros(6))
    out = run_circuit(build_model_circuit(model, np.zeros(3)))
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1.0
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)


def test_single_qubit_has_no_entanglers():
    model = model_with(1, 1, params=[0.4])
    circuit = build_model_circuit(model, [0.0])
    assert all(g.kind != "CNOT" for g in circuit.gates)


def test_circuit_depth_matches_layering_oracle():
    # frozen from the oracle: encoding, then twice (RY per qubit + CNOT chain)
    assert layering_oracle(build_model_circuit(model_with(4, 2), np.zeros(4))) == 8
    assert model_with(4, 2).circuit_depth == 8
    for n in range(1, 17):
        for layers in range(1, 7):
            model = model_with(n, layers)
            assert model.circuit_depth == layering_oracle(build_model_circuit(model, np.zeros(n)))


def test_parameter_count_and_shape_rejected():
    with pytest.raises(ValueError, match="expected 6 parameters for 3 qubits x 2 layers, found 5$"):
        QnnModel(3, 2, np.zeros(5))
    with pytest.raises(ValueError, match="expected 6 parameters for 3 qubits x 2 layers, found 2 x 3"):
        QnnModel(3, 2, np.zeros((2, 3)))


def test_dimension_mismatch_rejected():
    model = model_with(3, 1)
    with pytest.raises(ValueError):
        build_model_circuit(model, [0.1, 0.2])
    for X in ([[0.1, 0.2]], [0.1, 0.2, 0.3]):  # too narrow; one-dimensional
        with pytest.raises(ValueError):
            qnn_scores(model, X)


# --- forward -----------------------------------------------------------------


def test_forward_trivial_state():
    model = model_with(3, 2, params=np.zeros(6))
    assert qnn_scores(model, np.zeros((1, 3)))[0] == 1.0


def test_forward_single_qubit_is_cosine():
    theta = 0.9
    model = model_with(1, 1, params=[theta])
    assert abs(qnn_scores(model, [[0.0]])[0] - math.cos(theta)) < 1e-12


def test_forward_scores_bounded():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        layers = int(rng.integers(1, 4))
        model = model_with(n, layers, params=rng.uniform(-6, 6, size=n * layers))
        score = qnn_scores(model, rng.uniform(0, 1, size=(1, n)))[0]
        assert -1.0 <= score <= 1.0


def test_batch_scores_match_single_forward():
    # 8 x 3 has bond 4, so its sums run over eight terms; 4 x 4 has bond 8
    for n, layers in ((4, 2), (8, 2), (8, 3), (4, 4)):
        rng = np.random.default_rng(4)
        model = model_with(n, layers, seed=8)
        X = rng.uniform(0, 1, size=(9, n))
        batch = qnn_scores(model, X)
        singles = np.array([qnn_scores(model, x[None, :])[0] for x in X])
        np.testing.assert_array_equal(batch, singles)


def test_scores_do_not_depend_on_row_blocks():
    # a row block holds fewer than 150 rows at these shapes, so the batches split differently
    for n, layers in ((11, 5), (16, 3)):
        rng = np.random.default_rng(12)
        model = model_with(n, layers, seed=3)
        X = rng.uniform(0, 1, size=(150, n))
        assert _block_rows(n, layers) < len(X)
        pieces = [qnn_scores(model, X[a:b]) for a, b in ((0, 1), (1, 77), (77, 150))]
        np.testing.assert_array_equal(qnn_scores(model, X), np.concatenate(pieces))


@pytest.mark.parametrize("n, layers", [(2, 1), (8, 2), (16, 3)])
def test_given_half_angles_change_no_bit(n, layers):
    # (16, 3) spans two row blocks
    rng = np.random.default_rng([n, layers, 1])
    model = model_with(n, layers, seed=5)
    X, y = rng.uniform(0, 1, size=(150, n)), rng.choice([-1, 1], 150)
    pair = _half_angles(X)
    assert qnn_scores(model, X, half_angles=pair).tobytes() == qnn_scores(model, X).tobytes()
    given = parameter_shift_grad(model, X, y, half_angles=pair)
    assert given.tobytes() == parameter_shift_grad(model, X, y).tobytes()


@pytest.mark.parametrize("shape", [(2, 3, 9), (2, 9, 3), (1, 3, 10), (2, 3, 10, 1)])
def test_half_angles_of_the_wrong_shape_are_refused(shape):
    model = model_with(3, 2)
    X, y, pair = np.full((10, 3), 0.5), np.ones(10), np.zeros(shape)
    with pytest.raises(ValueError, match=r"expected \(2, 3, 10\) half angles"):
        qnn_scores(model, X, half_angles=pair)
    with pytest.raises(ValueError, match=r"expected \(2, 3, 10\) half angles"):
        parameter_shift_grad(model, X, y, half_angles=pair)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), j=st.integers(0, 7))
def test_two_pi_shift_invariance(seed, j):
    rng = np.random.default_rng(seed)
    model = model_with(4, 2, params=rng.uniform(-np.pi, np.pi, 8))
    x = rng.uniform(0, 1, size=(1, 4))
    base = qnn_scores(model, x)[0]
    shifted = model.params.copy()
    shifted[j] += 2 * np.pi
    assert abs(qnn_scores(model_with(4, 2, params=shifted), x)[0] - base) < 1e-12


@pytest.mark.parametrize("n", range(1, 14))
def test_rotate_matches_per_qubit_butterfly(n):
    # the test statevector's grouped Kronecker rotation; both signs, as its
    # adjoint sweep steps back with RY(-theta)
    rng = np.random.default_rng(n)
    rows = max(1, 2**14 // 2**n)
    psi = rng.standard_normal((rows, 2**n))
    for angles in (rng.uniform(-2 * np.pi, 2 * np.pi, n), -rng.uniform(0, np.pi, n)):
        expected = rotate_reference(psi, angles)
        rotated = statevector.rotate(psi, angles)
        assert np.max(np.abs(rotated - expected)) <= 1e-13


# --- hinge loss -----------------------------------------------------------------


def test_hinge_values():
    assert mean_hinge_loss([+1], [1.0]) == 0.0
    assert mean_hinge_loss([+1], [0.0]) == 1.0
    assert mean_hinge_loss([-1], [0.5]) == 1.5
    assert mean_hinge_loss([+1, -1, -1], [0.0, 0.5, -2.0]) == 2.5 / 3


def test_hinge_invalid_label():
    with pytest.raises(ValueError):
        mean_hinge_loss([0], [0.5])
    with pytest.raises(ValueError):
        mean_hinge_loss([1, 2], [0.5, 0.5])


def test_hinge_accepts_float_labels():
    assert mean_hinge_loss(np.array([1.0, -1.0]), np.array([1.0, -1.0])) == 0.0
    assert mean_hinge_loss(np.array([-1.0]), np.array([0.5])) == 1.5


@pytest.mark.parametrize("bad", [0, 2, np.nan])
def test_hinge_refuses_labels_off_plus_minus_one(bad):
    with pytest.raises(ValueError, match="labels must all be -1 or \\+1"):
        mean_hinge_loss(np.array([1.0, bad, -1.0]), np.zeros(3))


@settings(max_examples=50, deadline=None)
@given(y=st.sampled_from([-1, 1]), score=st.floats(-5, 5, allow_nan=False))
def test_hinge_floor(y, score):
    value = mean_hinge_loss([y], [score])
    assert value >= 0.0
    assert (value == 0.0) == (y * score >= 1.0)


# --- gradients -------------------------------------------------------------------


def test_score_grad_single_qubit_sine():
    model = model_with(1, 1, params=[math.pi / 2])
    grad = qnn_score_grad(model, [0.0])
    assert abs(grad[0] - (-1.0)) < 1e-12
    flat = qnn_score_grad(model_with(1, 1, params=[0.0]), [0.0])
    assert abs(flat[0]) < 1e-12


def test_parameter_shift_matches_finite_differences():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 8:
        model = model_with(4, 2, params=rng.uniform(0, np.pi, 8))
        X = rng.uniform(0, 1, size=(5, 4))
        y = rng.choice([-1, 1], size=5)
        if kink_adjacent(model, X, y):
            continue
        shift = parameter_shift_grad(model, X, y)
        fd = finite_difference_grad(model, X, y)
        assert np.max(np.abs(shift - fd)) < 1e-5
        checked += 1


def test_gradient_zero_past_margin():
    # y=+1 and score=+1 exactly on the margin kink -> subgradient 0
    model = model_with(2, 1, params=np.zeros(2))
    X = np.zeros((3, 2))
    y = np.ones(3, dtype=int)
    grad = parameter_shift_grad(model, X, y)
    np.testing.assert_array_equal(grad, np.zeros(2))


# one block of all 11 rows, and blocks of 3 rows (24 * k * 4**layers bytes per row)
@pytest.mark.parametrize("block_bytes", [3 * 2**20, 3 * 24 * 3 * 4**2])
def test_gradient_over_a_batch_with_rows_on_the_margin(monkeypatch, block_bytes):
    # under zero angles a row of zero features scores exactly +1: with label +1
    # it sits on the margin and weighs 0, among rows inside the margin
    monkeypatch.setattr(qmlrobust.qnn, "_BLOCK_BYTES", block_bytes)
    model = model_with(3, 2, params=np.zeros(6))
    rng = np.random.default_rng(7)
    X = rng.uniform(0.1, 0.9, size=(11, 3))
    y = rng.choice([-1, 1], size=11)
    on_margin = [0, 4, 5, 10]
    X[on_margin], y[on_margin] = 0.0, 1
    scores = qnn_scores(model, X)
    assert np.all(scores[on_margin] == 1.0)
    assert np.all(np.abs(np.delete(scores, on_margin)) < 1.0)
    weight = hinge_weights(model, X, y)
    expected = statevector.grad(np.zeros((2, 3)), X, weight).ravel()
    assert np.max(np.abs(expected)) > 0.01
    assert np.max(np.abs(parameter_shift_grad(model, X, y) - expected)) <= 1e-13


def test_gradient_empty_batch_rejected():
    model = model_with(2, 1)
    with pytest.raises(ValueError):
        parameter_shift_grad(model, np.zeros((0, 2)), np.zeros(0))


# --- properties against the oracles ----------------------------------------------


@st.composite
def random_problems(draw):
    """A model of width 1-8 and 1-4 layers, with a labelled batch."""
    n = draw(st.integers(1, 8))
    layers = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = QnnModel(n, layers, rng.uniform(-2 * np.pi, 2 * np.pi, n * layers))
    X = rng.uniform(0, 1, size=(rows, n))
    y = rng.choice([-1, 1], size=rows)
    return model, X, y


def hinge_weights(model, X, y):
    return np.where(y * qnn_scores(model, X) < 1.0, -y.astype(float), 0.0) / X.shape[0]


@settings(max_examples=60, deadline=None)
@given(problem=random_problems())
def test_scores_match_gate_list_simulator(problem):
    model, X, _ = problem
    slow = np.array(
        [expectation_z(run_circuit(build_model_circuit(model, x)), model.readout_qubit) for x in X]
    )
    assert np.max(np.abs(qnn_scores(model, X) - slow)) <= 1e-12
    # a batch of one row is its own row block
    assert np.max(np.abs([qnn_scores(model, x[None, :])[0] for x in X] - slow)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(problem=random_problems())
def test_adjoint_gradient_matches_weighted_shift_rule(problem):
    model, X, y = problem
    weight = hinge_weights(model, X, y)
    expected = sum(w * qnn_score_grad(model, x) for w, x in zip(weight, X))
    assert np.max(np.abs(parameter_shift_grad(model, X, y) - expected)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(problem=random_problems())
def test_adjoint_gradient_matches_central_differences(problem):
    # hinge weights frozen at the unshifted parameters, so no kink is crossed;
    # step 1e-5 leaves O(h^2) + roundoff/h well below the tolerance
    model, X, y = problem
    weight = hinge_weights(model, X, y)
    step = 1e-5
    fd = np.empty(model.n_params)
    for j in range(model.n_params):
        shifted = []
        for delta in (step, -step):
            params = model.params.copy()
            params[j] += delta
            shifted.append(weight @ qnn_scores(replace(model, params=params), X))
        fd[j] = (shifted[0] - shifted[1]) / (2 * step)
    assert np.max(np.abs(parameter_shift_grad(model, X, y) - fd)) <= 1e-8


# the narrowest widths, where the stacked sweep of `_grad` has zero, one or
# two steps, with two row seeds at widths 2 and 3
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("n, seed", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 2)])
def test_narrow_adjoint_gradient_matches_weighted_shift_rule(n, seed, layers):
    model, X, y = wide_problem(n, layers, seed, rows=4)
    weight = hinge_weights(model, X, y)
    assert np.any(weight)
    expected = sum(w * qnn_score_grad(model, x) for w, x in zip(weight, X) if w)
    assert np.max(np.abs(parameter_shift_grad(model, X, y) - expected)) <= 1e-12


# widths past what `random_problems` draws, up to bond 8 (4 layers): (n, layers, seed)
WIDE_PROBLEMS = [
    (9, 1, 3),
    (9, 3, 0),
    (12, 2, 5),
    (12, 1, 10),
    (13, 3, 7),
    (13, 2, 11),
    (9, 4, 2),
    (10, 4, 9),
    (13, 4, 6),
]


def wide_problem(n, layers, seed, rows=3):
    rng = np.random.default_rng([n, layers, seed])
    model = QnnModel(n, layers, rng.uniform(-2 * np.pi, 2 * np.pi, n * layers))
    X = rng.uniform(0, 1, size=(rows, n))
    y = rng.choice([-1, 1], size=rows)
    return model, X, y


@pytest.mark.parametrize("n, layers, seed", WIDE_PROBLEMS)
def test_wide_scores_match_gate_list_simulator(n, layers, seed):
    model, X, _ = wide_problem(n, layers, seed)
    slow = np.array([expectation_z(run_circuit(build_model_circuit(model, x)), n - 1) for x in X])
    assert np.max(np.abs(qnn_scores(model, X) - slow)) <= 1e-12


@pytest.mark.parametrize("n, layers, seed", WIDE_PROBLEMS)
def test_wide_adjoint_gradient_matches_weighted_shift_rule(n, layers, seed):
    model, X, y = wide_problem(n, layers, seed, rows=2)
    weight = hinge_weights(model, X, y)
    assert np.any(weight)
    expected = sum(w * qnn_score_grad(model, x) for w, x in zip(weight, X) if w)
    assert np.max(np.abs(parameter_shift_grad(model, X, y) - expected)) <= 1e-12


_KERNEL_DIGEST = """
import hashlib, sys
import numpy as np
from qmlrobust.qnn import QnnModel, parameter_shift_grad, qnn_scores

digest = hashlib.sha256()
# 1 to 5 layers: bonds 1 to 16
for n, layers, rows in (
    (2, 1, 20000), (8, 2, 300), (12, 2, 70), (13, 2, 40), (2, 2, 20000), (8, 4, 300), (12, 5, 70)
):
    rng = np.random.default_rng(n)
    model = QnnModel(n, layers, rng.uniform(0, np.pi, layers * n))
    X = rng.uniform(0, 1, size=(rows, n))
    y = rng.choice([-1, 1], size=rows)
    digest.update(qnn_scores(model, X).tobytes())
    digest.update(parameter_shift_grad(model, X, y).tobytes())
sys.stdout.write(digest.hexdigest())
"""


def test_kernel_bytes_do_not_depend_on_blas_threads():
    digests = stdout_at_blas_threads(_KERNEL_DIGEST)
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


# --- against the test statevector ---------------------------------------------


# 2 to 6 layers (bond 2 to 32)
@pytest.mark.parametrize(
    "n, layers", [(4, 2), (8, 3), (6, 2), (6, 3), (3, 3), (10, 3), (5, 5), (3, 6)]
)
def test_mps_matches_statevector(n, layers):
    rng = np.random.default_rng([n, layers])
    theta = rng.uniform(-2 * np.pi, 2 * np.pi, (layers, n))
    X = rng.uniform(0, 1, size=(40, n))
    weight = rng.uniform(-1, 1, 40)
    assert np.max(np.abs(_scores(theta, _half_angles(X)) - statevector.scores(theta, X))) <= 1e-13
    terms = np.empty((layers, n, len(X)))
    _grad(theta, _half_angles(X), weight, terms)
    assert np.max(np.abs(terms.sum(axis=2) - statevector.grad(theta, X, weight))) <= 1e-13


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("extra", [0, 3, 6])
def test_light_cone_of_a_wide_model(layers, extra):
    # Z on the last qubit reaches back to every qubit, but a prefix with zero
    # features and zero angles stays |0> and feeds the chain a zero carry, so a
    # 40-qubit model scores like the model cut to its last `cone` qubits. Its
    # angles have no gradient: a prefix qubit turned to |1> stays |1>, and the
    # readout never flips it back.
    n, cone = 40, extra + layers
    rng = np.random.default_rng([layers, extra])
    theta = rng.uniform(-2 * np.pi, 2 * np.pi, (layers, n))
    theta[:, : n - cone] = 0.0
    wide = QnnModel(n, layers, theta.ravel())
    narrow = QnnModel(cone, layers, theta[:, n - cone :].ravel())
    X = rng.uniform(0, 1, size=(3, n))
    X[:, : n - cone] = 0.0
    y = rng.choice([-1, 1], size=3)
    cut = X[:, n - cone :]
    slow = np.array(
        [expectation_z(run_circuit(build_model_circuit(narrow, x)), cone - 1) for x in cut]
    )
    assert np.max(np.abs(qnn_scores(wide, X) - slow)) <= 1e-12
    weight = hinge_weights(narrow, cut, y)
    assert np.any(weight)
    expected = sum(w * qnn_score_grad(narrow, x) for w, x in zip(weight, cut) if w)
    grad = parameter_shift_grad(wide, X, y).reshape(layers, n)
    assert np.max(np.abs(grad[:, n - cone :].ravel() - expected)) <= 1e-12
    assert np.max(np.abs(grad[:, : n - cone])) <= 1e-15


def test_forty_qubit_layer_matches_closed_form():
    # Z on the last qubit after the chain is Z on every qubit before it, and
    # one layer leaves a product state: score = prod over q of cos(pi x_q + theta_q)
    n = 40
    rng = np.random.default_rng(40)
    model = QnnModel(n, 1, rng.uniform(-2 * np.pi, 2 * np.pi, n))
    X = rng.uniform(0, 1, size=(3, n))
    y = np.array([1, -1, 1])
    angles = np.pi * X + model.params
    cos, sin = np.cos(angles), np.sin(angles)
    closed = np.prod(cos, axis=1)
    # scores near 1e-10: compare relative to the product's size
    assert np.all(np.abs(qnn_scores(model, X) - closed) <= 1e-12 * np.abs(closed))
    # d score / d theta_q = -sin_q * prod over the other qubits of cos
    others = np.array([np.prod(np.delete(cos, q, axis=1), axis=1) for q in range(n)]).T
    terms = hinge_weights(model, X, y)[:, None] * -sin * others
    scale = np.abs(terms).sum(axis=0)
    assert np.all(np.abs(parameter_shift_grad(model, X, y) - terms.sum(axis=0)) <= 1e-12 * scale)


# --- Adam ---------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    state = AdamState.fresh(4)
    params = np.array([0.1, 0.2, 0.3, 0.4])
    _, updated = adam_step(state, params, np.zeros(4))
    np.testing.assert_array_equal(updated, params)


def test_adam_first_step_is_signed_learning_rate():
    state = AdamState.fresh(3, learning_rate=0.01)
    params = np.zeros(3)
    grads = np.array([0.5, -2.0, 1e-3])
    _, updated = adam_step(state, params, grads)
    # first step: m_hat = g, v_hat = g^2 -> update = -lr * g/(|g| + eps)
    expected = -0.01 * grads / (np.abs(grads) + EPS_STABILIZER)
    np.testing.assert_allclose(updated, expected, rtol=1e-12)
    np.testing.assert_allclose(updated, -0.01 * np.sign(grads), rtol=1e-4)


def test_adam_deterministic():
    params = np.array([1.0, -1.0])
    grads = np.array([0.3, 0.7])
    s1, p1 = adam_step(AdamState.fresh(2), params, grads)
    s2, p2 = adam_step(AdamState.fresh(2), params, grads)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(s1.m, s2.m)
    np.testing.assert_array_equal(s1.v, s2.v)


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(AdamState.fresh(2), np.zeros(3), np.zeros(3))


# --- training -------------------------------------------------------------------


def one_point_set():
    return FeatureMatrix(values=np.zeros((1, 1)), labels=np.array([1]))


def test_zero_epochs_rejected():
    data = one_point_set()
    with pytest.raises(ValueError):
        train_qnn(model_with(1, 1, params=[1.0]), data, data, epochs=0)


def test_empty_train_set_rejected():
    empty = FeatureMatrix(values=np.zeros((0, 1)), labels=np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        train_qnn(model_with(1, 1, params=[1.0]), empty, one_point_set(), epochs=1)


def test_parameterless_model_rejected():
    data = one_point_set()
    with pytest.raises(ValueError, match="model has no parameters"):
        train_qnn(QnnModel(1, 1), data, data, epochs=1)


def test_loss_decreases_from_quarter_turn():
    # loss(theta) = 1 - cos(theta) pulls theta from pi/2 toward 0
    data = one_point_set()
    model = model_with(1, 1, params=[math.pi / 2])
    _, history = train_qnn(model, data, data, epochs=10)
    losses = [r.train_loss for r in history]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_learns_separable_two_feature_data():
    rng = np.random.default_rng(5)
    n = 200
    labels = np.concatenate([np.ones(n // 2, dtype=int), -np.ones(n // 2, dtype=int)])
    centers = np.where(labels[:, None] > 0, 0.75, 0.25)
    values = np.clip(centers + 0.05 * rng.standard_normal((n, 2)), 0, 1)
    order = rng.permutation(n)
    values, labels = values[order], labels[order]
    train = FeatureMatrix(values[:140], labels[:140])
    val = FeatureMatrix(values[140:], labels[140:])
    model = QnnModel(n_qubits=2, n_layers=2)
    model = replace(model, params=init_params(model, seed=11))
    trained, history = train_qnn(model, train, val, epochs=100)
    assert history[-1].val_accuracy >= 0.9


def train_with_separate_score_calls(model, train, val, epochs, learning_rate=0.01):
    """`train_qnn` as a loop that scores train and validation in two calls after each step."""
    adam = AdamState.fresh(model.n_params, learning_rate)
    history = []
    for _ in range(epochs):
        grads = parameter_shift_grad(model, train.values, train.labels)
        adam, params = adam_step(adam, model.params, grads)
        model = replace(model, params=params)
        train_scores = qnn_scores(model, train.values)
        history.append(epoch_record(train, train_scores, val, qnn_scores(model, val.values)))
    return model, history


@pytest.mark.parametrize(
    "n, layers, n_train, n_val, epochs",
    [(8, 2, 144, 48, 4), (1, 1, 30, 11, 4), (16, 3, 150, 60, 2)],
    ids=["vqc-train-shape", "one-qubit", "across-row-blocks"],
)
def test_training_matches_separate_score_calls_bit_for_bit(n, layers, n_train, n_val, epochs):
    rng = np.random.default_rng([n, layers])
    train = FeatureMatrix(rng.uniform(0, 1, (n_train, n)), rng.choice([-1, 1], n_train))
    val = FeatureMatrix(rng.uniform(0, 1, (n_val, n)), rng.choice([-1, 1], n_val))
    model = QnnModel(n, layers)
    model = replace(model, params=init_params(model, seed=n))
    if n == 16:
        # the stacked rows span two row blocks, and the second holds train and validation rows
        step = _block_rows(n, layers)
        assert step < n_train < n_train + n_val <= 2 * step
    trained, history = train_qnn(model, train, val, epochs)
    expected, expected_history = train_with_separate_score_calls(model, train, val, epochs)
    assert trained.params.tobytes() == expected.params.tobytes()
    assert history == expected_history


def test_training_computes_the_half_angles_once(monkeypatch):
    calls = []

    def counted(X):
        calls.append(X.shape)
        return _half_angles(X)

    monkeypatch.setattr(qmlrobust.qnn, "_half_angles", counted)
    rng = np.random.default_rng(2)
    train = FeatureMatrix(rng.uniform(0, 1, (30, 2)), rng.choice([-1, 1], 30))
    val = FeatureMatrix(rng.uniform(0, 1, (10, 2)), rng.choice([-1, 1], 10))
    model = QnnModel(2, 1)
    train_qnn(replace(model, params=init_params(model, seed=3)), train, val, epochs=3)
    assert calls == [(40, 2)]


def test_training_deterministic_given_seed():
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 1, size=(30, 2))
    labels = np.where(rng.uniform(size=30) < 0.5, -1, 1)
    data = FeatureMatrix(values=values, labels=labels)
    model = QnnModel(2, 2)
    m1, h1 = train_qnn(replace(model, params=init_params(model, seed=42)), data, data, epochs=5)
    m2, h2 = train_qnn(replace(model, params=init_params(model, seed=42)), data, data, epochs=5)
    np.testing.assert_array_equal(m1.params, m2.params)
    assert h1 == h2


# --- checkpoints -----------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    model = model_with(3, 2, seed=9)
    path = tmp_path / "qnn.txt"
    save_qnn(model, path)
    # the third size names the readout, always the last qubit
    assert path.read_text().splitlines()[0] == "qnn 3 2 2"
    again = load_qnn(path)
    assert again.n_qubits == 3 and again.n_layers == 2 and again.readout_qubit == 2
    np.testing.assert_array_equal(again.params, model.params)
    with pytest.raises(AttributeError):
        again.readout_qubit = 0


@pytest.mark.parametrize("extra", [-1, 1], ids=["truncated", "over-long"])
def test_checkpoint_wrong_value_count_names_path_and_counts(tmp_path, extra):
    path = tmp_path / "qnn.txt"
    save_qnn(model_with(3, 2, seed=9), path)
    lines = path.read_text().splitlines()
    lines = lines[:extra] if extra < 0 else lines + ["0.0"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"{path.name}: expected 6 parameters .* found {6 + extra}"):
        load_qnn(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "abc", ""])
@pytest.mark.parametrize("line", [2, 3])
def test_checkpoint_non_finite_value_names_path_and_line(tmp_path, value, line):
    path = tmp_path / "qnn.txt"
    params = ["0.5", "0.5"]
    params[line - 2] = value
    path.write_text("qnn 2 1 1\n" + "\n".join(params) + "\n")
    try:
        float(value)
        problem = f"parameter must be finite, found '{value}'"
    except ValueError:  # a value that is no number at all, a blank line among them
        problem = f"could not convert string to float: '{value}'"
    with pytest.raises(ValueError, match=rf"{path.name}:{line}: {problem}$"):
        load_qnn(path)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "qnn 2 1\n0\n0\n",
        "qnn 2 x 1\n0\n0\n",
        "qnn \u00b2 1 0\n0\n0\n",  # a superscript two: a digit, but not a decimal one
        "qnn 2 1 5\n0\n0\n",
        "qnn 2 1 0\n0\n0\n",  # a readout before the last qubit
        "qnn 1 1 0\nabc\n",
    ],
)
def test_checkpoint_bad_header_or_value_names_path(tmp_path, text):
    path = tmp_path / "qnn.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"{path.name}(:\d+)?: "):  # a bad value names its line
        load_qnn(path)
