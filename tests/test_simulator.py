import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlrobust.simulator import (
    Gate,
    QuantumCircuit,
    StateVector,
    apply_cnot,
    apply_gate_amps,
    cnot,
    encode_features,
    encode_features_amps,
    expectation_z,
    expectation_z_amps,
    run_circuit,
    ry,
)

# --- independent dense-matrix oracle -------------------------------------
# Builds the full 2^n x 2^n unitary per gate from scratch (Kronecker products
# of the 2x2 matrix for RY, a per-index loop for CNOT) and applies it as a
# matrix product, never calling the simulator's index-bit kernels.

_I2 = np.eye(2, dtype=complex)


def _single_qubit_unitary(gate: Gate) -> np.ndarray:
    assert gate.kind == "RY", gate.kind
    c, s = math.cos(gate.angle / 2), math.sin(gate.angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def dense_gate_matrix(gate: Gate, n: int) -> np.ndarray:
    """Full-register matrix; qubit 0 is the least significant index bit."""
    if gate.kind == "CNOT":
        dim = 2**n
        m = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            j = i ^ (1 << gate.target) if (i >> gate.control) & 1 else i
            m[j, i] = 1.0
        return m
    u = _single_qubit_unitary(gate)
    m = np.array([[1.0 + 0j]])
    for q in range(n - 1, -1, -1):  # kron builds most-significant first
        m = np.kron(m, u if q == gate.target else _I2)
    return m


def dense_run(circuit: QuantumCircuit, amps: np.ndarray) -> np.ndarray:
    out = amps.astype(complex)
    for gate in circuit.gates:
        out = dense_gate_matrix(gate, circuit.n_qubits) @ out
    return out


def random_circuit(rng: np.random.Generator, n: int, n_gates: int) -> QuantumCircuit:
    gates = []
    for _ in range(n_gates):
        if rng.uniform() < 0.4 and n >= 2:
            control, target = rng.choice(n, size=2, replace=False)
            gates.append(cnot(int(control), int(target)))
        else:
            gates.append(ry(int(rng.integers(n)), float(rng.uniform(-2 * np.pi, 2 * np.pi))))
    return QuantumCircuit(n, gates)


def random_state(rng: np.random.Generator, n: int) -> StateVector:
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def basis_state(bits: str) -> StateVector:
    """Computational basis state from a bit string, qubit 0 rightmost."""
    amps = np.zeros(2 ** len(bits), dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return StateVector(len(bits), amps)


def apply_one(state: StateVector, gate: Gate) -> StateVector:
    return run_circuit(QuantumCircuit(state.n_qubits, [gate]), state)


# --- single gates ---------------------------------------------------------


def test_ry_pi_flips_zero_to_one():
    out = apply_one(StateVector.zero(1), ry(0, math.pi))
    np.testing.assert_allclose(out.amplitudes, [0.0, 1.0], atol=1e-15)


def test_cnot_truth_table():
    # control set -> target flips: q0=1, q1=0 maps to q0=1, q1=1
    out = apply_one(basis_state("01"), cnot(0, 1))
    np.testing.assert_array_equal(out.amplitudes, [0, 0, 0, 1])
    # control clear -> nothing happens
    out = apply_one(basis_state("10"), cnot(0, 1))
    np.testing.assert_array_equal(out.amplitudes, [0, 0, 1, 0])


def test_ry_half_turn_on_zero_is_plus():
    out = apply_one(StateVector.zero(1), ry(0, math.pi / 2))
    np.testing.assert_allclose(out.amplitudes, [1 / math.sqrt(2)] * 2, rtol=1e-15)


def test_gate_outside_the_model_set_rejected():
    for gate in (Gate("H", 0), Gate("RX", 0, angle=0.5)):
        with pytest.raises(ValueError, match="unknown gate kind"):
            apply_one(StateVector.zero(1), gate)


def test_gate_index_out_of_range():
    with pytest.raises(ValueError):
        apply_one(StateVector.zero(2), ry(2, 0.1))
    with pytest.raises(ValueError):
        apply_one(StateVector.zero(2), cnot(1, 1))


# --- circuits -------------------------------------------------------------


def test_empty_circuit_is_identity():
    state = StateVector.zero(3)
    out = run_circuit(QuantumCircuit(3, []))
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


def test_bell_construction():
    out = run_circuit(QuantumCircuit(2, [ry(0, math.pi / 2), cnot(0, 1)]))
    expected = np.array([1, 0, 0, 1]) / math.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)


def test_circuit_state_width_mismatch():
    with pytest.raises(ValueError):
        run_circuit(QuantumCircuit(2, [ry(0, 0.1)]), initial=StateVector.zero(3))


def test_random_circuits_preserve_norm():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        circuit = random_circuit(rng, n, 30)
        out = run_circuit(circuit)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_against_dense_matrix_oracle():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        circuit = random_circuit(rng, n, int(rng.integers(1, 31)))
        initial = random_state(rng, n)
        fast = run_circuit(circuit, initial).amplitudes
        slow = dense_run(circuit, initial.amplitudes)
        np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_composition_is_exact():
    rng = np.random.default_rng(5)
    c1 = random_circuit(rng, 3, 12)
    c2 = random_circuit(rng, 3, 12)
    whole = run_circuit(QuantumCircuit(3, c1.gates + c2.gates))
    staged = run_circuit(c2, run_circuit(c1))
    np.testing.assert_array_equal(whole.amplitudes, staged.amplitudes)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["RY", "CNOT"]),
    angle=st.floats(-10, 10, allow_nan=False),
    seed=st.integers(0, 2**20),
)
def test_unitarity_random_gate_random_state(kind, angle, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    state = random_state(rng, n)
    if kind == "RY" or n == 1:
        gate = ry(int(rng.integers(n)), angle)
    else:
        control, target = rng.choice(n, size=2, replace=False)
        gate = cnot(int(control), int(target))
    out = apply_one(state, gate)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


# --- readout --------------------------------------------------------------


def test_expectation_z_eigenstates():
    assert expectation_z(StateVector.zero(1), 0) == 1.0
    assert expectation_z(basis_state("1"), 0) == -1.0


def test_expectation_z_superposition():
    plus = apply_one(StateVector.zero(1), ry(0, math.pi / 2))
    assert abs(expectation_z(plus, 0)) < 1e-12


def test_expectation_z_matches_bit_probability():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        state = random_state(rng, n)
        q = int(rng.integers(n))
        probs = np.abs(state.amplitudes) ** 2
        p1 = sum(p for i, p in enumerate(probs) if (i >> q) & 1)
        expect = expectation_z(state, q)
        assert abs(expect - (1.0 - 2.0 * p1)) < 1e-12
        assert -1.0 <= expect <= 1.0


def test_expectation_z_bad_index():
    with pytest.raises(ValueError):
        expectation_z(StateVector.zero(2), 2)


# --- feature encoding -----------------------------------------------------


def test_encode_zero_features_is_identity():
    out = run_circuit(encode_features([0.0, 0.0, 0.0]))
    np.testing.assert_array_equal(out.amplitudes, StateVector.zero(3).amplitudes)


def test_encode_full_rotation():
    out = run_circuit(encode_features([1.0]))
    assert abs(expectation_z(out, 0) - (-1.0)) < 1e-12


def test_encode_halfway():
    out = run_circuit(encode_features([0.5]))
    assert abs(expectation_z(out, 0)) < 1e-12


def test_encode_product_state_analytic():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, size=5)
    state = run_circuit(encode_features(x))
    for q in range(5):
        assert abs(expectation_z(state, q) - math.cos(math.pi * x[q])) < 1e-12


def test_encode_rejects_bad_input():
    with pytest.raises(ValueError):
        encode_features([])
    with pytest.raises(ValueError):
        encode_features([0.5, 1.2])
    with pytest.raises(ValueError):
        encode_features([-0.1])


# --- batch kernels --------------------------------------------------------


def test_batch_kernels_match_per_row_circuits():
    # the batch kernels on a (B, 2**n) batch, against per-row circuits
    rng = np.random.default_rng(31)
    n, batch = 4, 6
    X = rng.uniform(0, 1, size=(batch, n))
    amps = encode_features_amps(X)
    states = [run_circuit(encode_features(x)) for x in X]
    np.testing.assert_allclose(amps, [s.amplitudes for s in states], rtol=0, atol=1e-15)
    amps = amps * np.exp(1j * rng.uniform(0, 2 * np.pi, size=amps.shape))
    states = [StateVector(n, row) for row in amps]
    for gate in (ry(2, 0.7), cnot(1, 3), cnot(3, 0), ry(0, -2.1)):
        if gate.kind == "CNOT":
            amps = apply_cnot(amps, gate.control, gate.target)
        else:
            amps = apply_gate_amps(amps, gate)
        states = [apply_one(s, gate) for s in states]
        np.testing.assert_array_equal(amps, [s.amplitudes for s in states])
    for q in range(n):
        expect = [expectation_z(s, q) for s in states]
        np.testing.assert_allclose(expectation_z_amps(amps, q, n), expect, rtol=0, atol=1e-15)
