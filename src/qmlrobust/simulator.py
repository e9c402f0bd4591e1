"""Dense statevector simulation of small parameterized circuits: the
reference oracle for the batched model kernel in `qnn`, and the circuit
whose size and depth the report gives. The gate set is the model's, RY and
CNOT.

Conventions (fixed so that tests can be bit-exact):
- qubit 0 is the least significant bit of the amplitude index, i.e. the
  basis state |q_{n-1} ... q_1 q_0> lives at index sum(q_k * 2**k)
- RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]
- gate application is pure: a new amplitude array is returned every time

All gate kernels accept an array of shape (..., 2**n) so a batch of states
can be pushed through a circuit in one numpy call; the public single-state
API wraps the same kernels.
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

    def wires(self) -> tuple[int, ...]:
        if self.control is None:
            return (self.target,)
        return (self.control, self.target)


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

    @classmethod
    def from_bits(cls, bits: str) -> "StateVector":
        """Computational basis state from a bit string, qubit 0 rightmost."""
        n = len(bits)
        amps = np.zeros(2**n, dtype=np.complex128)
        amps[int(bits, 2)] = 1.0
        return cls(n, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class CircuitMetrics:
    size: int
    depth: int


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


def _pad(coeff, extra_axes: int):
    # broadcast a per-batch coefficient across the remaining qubit axes
    c = np.asarray(coeff)
    if c.ndim == 0:
        return c
    return c.reshape(c.shape + (1,) * extra_axes)


def apply_single_qubit(amps: np.ndarray, qubit: int, m00, m01, m10, m11) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit of a (..., 2**n) amplitude array.

    Matrix entries may be scalars or arrays matching the leading batch
    shape (used for per-sample encoding angles).
    """
    lead = amps.shape[:-1]
    n = amps.shape[-1].bit_length() - 1
    work = amps.reshape(lead + (2,) * n)
    axis = work.ndim - 1 - qubit
    a0 = np.take(work, 0, axis=axis)
    a1 = np.take(work, 1, axis=axis)
    extra = a0.ndim - len(lead)
    m00, m01, m10, m11 = (_pad(m, extra) for m in (m00, m01, m10, m11))
    out = np.empty_like(work)
    out_view = np.moveaxis(out, axis, -1)
    out_view[..., 0] = m00 * a0 + m01 * a1
    out_view[..., 1] = m10 * a0 + m11 * a1
    return out.reshape(amps.shape)


def apply_cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    """Flip the target bit wherever the control bit is 1."""
    lead = amps.shape[:-1]
    n = amps.shape[-1].bit_length() - 1
    work = amps.reshape(lead + (2,) * n).copy()
    axis_c = work.ndim - 1 - control
    axis_t = work.ndim - 1 - target
    idx = [slice(None)] * work.ndim
    idx[axis_c] = 1
    # integer-indexing drops the control axis, shifting later axes left
    adj_t = axis_t - 1 if axis_t > axis_c else axis_t
    work[tuple(idx)] = np.flip(work[tuple(idx)], axis=adj_t).copy()
    return work.reshape(amps.shape)


def apply_gate_amps(amps: np.ndarray, gate: Gate, angle=None) -> np.ndarray:
    """Dispatch one gate on a (..., 2**n) amplitude array.

    `angle` overrides gate.angle and may be a per-batch array (rotations only).
    """
    kind = gate.kind
    if kind == "CNOT":
        return apply_cnot(amps, gate.control, gate.target)
    if kind == "RY":
        half = np.asarray(gate.angle if angle is None else angle) / 2.0
        c, s = np.cos(half), np.sin(half)
        return apply_single_qubit(amps, gate.target, c, -s, s, c)
    raise ValueError(f"unknown gate kind {kind!r}")


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Standard unitary action of one gate; returns a new state."""
    _check_gate(gate, state.n_qubits)
    return StateVector(state.n_qubits, apply_gate_amps(state.amplitudes, gate))


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
    """Batch <Z>: amps shape (..., 2**n) -> expectations of shape (...)."""
    lead = amps.shape[:-1]
    probs = (amps.real**2 + amps.imag**2).reshape(lead + (2,) * n_qubits)
    axis = probs.ndim - 1 - qubit
    p1 = np.take(probs, 1, axis=axis)
    reduce_axes = tuple(range(len(lead), p1.ndim))
    p1 = p1.sum(axis=reduce_axes) if reduce_axes else p1
    return 1.0 - 2.0 * p1


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
    """Batch angle encoding: (B, k) features -> (B, 2**k) amplitudes."""
    batch, k = features.shape
    amps = np.zeros((batch, 2**k), dtype=np.complex128)
    amps[:, 0] = 1.0
    for q in range(k):
        amps = apply_gate_amps(amps, ry(q, 0.0), angle=math.pi * features[:, q])
    return amps


def circuit_metrics(circuit: QuantumCircuit) -> CircuitMetrics:
    """Size (wire count) and depth via greedy as-soon-as-possible layering.

    Each gate lands on layer 1 + max(current layer of the wires it touches);
    depth is the largest layer assigned on any wire.
    """
    circuit.validate()
    wire_layer = [0] * circuit.n_qubits
    for gate in circuit.gates:
        layer = 1 + max(wire_layer[w] for w in gate.wires())
        for w in gate.wires():
            wire_layer[w] = layer
    return CircuitMetrics(size=circuit.n_qubits, depth=max(wire_layer, default=0))
