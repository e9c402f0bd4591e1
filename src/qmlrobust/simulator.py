"""Dense statevector simulation of small parameterized circuits: the
reference oracle for the batched model kernel in `qnn`. The gate set is the
model's, RY and CNOT.

Conventions (fixed so that tests can be bit-exact):
- qubit 0 is the least significant bit of the amplitude index, i.e. the
  basis state |q_{n-1} ... q_1 q_0> lives at index sum(q_k * 2**k)
- RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]
- gate application is pure: a new amplitude array is returned every time

Each gate and the Z readout is defined once, on the bits of the amplitude
index of a (..., 2**n) array; batch axes come from broadcasting, and
`run_circuit` applies the same kernels to one state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GATE_KINDS = ("RY", "CNOT")


@dataclass(frozen=True)
class Gate:
    """One gate instruction: kind, target wire, optional control / angle."""

    kind: str
    target: int
    control: int | None = None
    angle: float | None = None


def ry(target: int, angle: float) -> Gate:
    return Gate("RY", target, angle=angle)


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", target, control=control)


@dataclass
class QuantumCircuit:
    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def validate(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            _check_gate(g, self.n_qubits)


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        """|0...0> on n_qubits wires."""
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n_qubits, amps)


def _check_gate(gate: Gate, n_qubits: int) -> None:
    if gate.kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    if not 0 <= gate.target < n_qubits:
        raise ValueError(f"target {gate.target} out of range for {n_qubits} qubits")
    if gate.kind == "CNOT":
        if gate.control is None:
            raise ValueError("CNOT needs a control wire")
        if not 0 <= gate.control < n_qubits:
            raise ValueError(f"control {gate.control} out of range for {n_qubits} qubits")
        if gate.control == gate.target:
            raise ValueError("CNOT control and target must differ")
    elif gate.control is not None:
        raise ValueError(f"{gate.kind} takes no control wire")
    if gate.kind == "RY" and gate.angle is None:
        raise ValueError(f"{gate.kind} needs an angle")


def apply_cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    """Flip the target bit wherever the control bit is 1: a[idx ^ (bit_c << t)]."""
    idx = np.arange(amps.shape[-1])
    return amps[..., idx ^ (((idx >> control) & 1) << target)]


def apply_gate_amps(amps: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate to a (..., 2**n) amplitude array.

    RY(t) sends a[idx] to c a[idx] + (2 bit_t - 1) s a[idx ^ 2**t], with
    c, s = cos t/2, sin t/2 (the partner enters with -s where bit_t = 0).
    """
    if gate.kind == "CNOT":
        return apply_cnot(amps, gate.control, gate.target)
    if gate.kind == "RY":
        idx = np.arange(amps.shape[-1])
        out = amps[..., idx ^ (1 << gate.target)]  # the partner, updated in place
        out *= (2 * ((idx >> gate.target) & 1) - 1) * np.sin(gate.angle / 2.0)
        out += np.cos(gate.angle / 2.0) * amps
        return out
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def run_circuit(circuit: QuantumCircuit, initial: StateVector | None = None) -> StateVector:
    """Apply the circuit's gates in list order to `initial` (default |0...0>)."""
    circuit.validate()
    if initial is None:
        initial = StateVector.zero(circuit.n_qubits)
    elif initial.n_qubits != circuit.n_qubits:
        raise ValueError(
            f"circuit acts on {circuit.n_qubits} qubits but state has {initial.n_qubits}"
        )
    amps = initial.amplitudes
    for gate in circuit.gates:
        amps = apply_gate_amps(amps, gate)
    return StateVector(circuit.n_qubits, amps)


def expectation_z(state: StateVector, qubit: int) -> float:
    """<Z> on one qubit: +|amp|^2 where the bit is 0, minus where it is 1."""
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.n_qubits} qubits")
    return float(expectation_z_amps(state.amplitudes, qubit, state.n_qubits))


def expectation_z_amps(amps: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Batch <Z>: |a|^2 @ (1 - 2 bit_q), amps shape (..., 2**n) -> shape (...)."""
    bit = (np.arange(2**n_qubits) >> qubit) & 1
    return (amps.real**2 + amps.imag**2) @ (1.0 - 2.0 * bit)


def encode_features(x) -> QuantumCircuit:
    """Angle-encode a feature vector in [0,1]^k as RY(pi*x_i) on qubit i."""
    vec = np.asarray(x, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError("feature vector must be non-empty and one-dimensional")
    if np.any(vec < 0.0) or np.any(vec > 1.0):
        raise ValueError("feature values must lie in [0, 1]; clip before encoding")
    gates = [ry(i, math.pi * float(v)) for i, v in enumerate(vec)]
    return QuantumCircuit(len(vec), gates)


def encode_features_amps(features: np.ndarray) -> np.ndarray:
    """Batch angle encoding: (B, k) features -> (B, 2**k) product states.

    Qubit q is bit q of the index, so the state doubles once per qubit: the
    new half with bit q = 0 is scaled by cos(pi x_q / 2), the other by sin.
    """
    amps = np.ones((features.shape[0], 1), dtype=np.complex128)
    for column in features.T:
        half = (math.pi * column / 2.0)[:, None]
        amps = np.concatenate([amps * np.cos(half), amps * np.sin(half)], axis=-1)
    return amps

