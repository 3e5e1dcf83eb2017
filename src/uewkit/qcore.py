"""Dense complex linear algebra for multi-qubit states and operators.

Every wrapper type validates its defining invariant once at construction and
then freezes the underlying array, so values are immutable and safe to share.
Inputs that fail an invariant are rejected, never repaired. All operations
are pure functions.

Party (subsystem) indices are 0-based throughout this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from operator import index
from pathlib import Path
from typing import Sequence, Union

import numpy as np

__all__ = [
    "MAX_TOTAL_DIM",
    "CapacityError",
    "HermitianOperator",
    "DensityMatrix",
    "PureState",
    "ProductState",
    "identity",
    "maximally_mixed",
    "tensor",
    "expectation",
    "commutator_norm",
    "bloch_form",
    "bloch_state",
    "partial_transpose",
    "min_eigenvalue",
    "is_ppt",
    "pure_density",
    "operator_to_dict",
    "operator_from_dict",
    "state_to_dict",
    "state_from_dict",
    "density_from_dict",
    "save_json",
    "load_json",
]

MAX_TOTAL_DIM = 2**12  # 12 qubits: multi_operators at multipartite.MAX_AGENTS

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-12
PPT_TOL = 1e-9
IMAG_TOL = 1e-10


class CapacityError(ValueError):
    """Total Hilbert-space dimension exceeds the dense-storage cap."""


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    try:
        dims = tuple(index(d) for d in dims)
    except TypeError:
        raise ValueError(f"dims must be a list of integers, got {dims!r}") from None
    if not dims:
        raise ValueError("dims must be nonempty")
    if any(d < 2 for d in dims):
        raise ValueError(f"every subsystem dimension must be >= 2, got {dims}")
    total = math.prod(dims)
    if total > MAX_TOTAL_DIM:
        raise CapacityError(f"total dimension {total} exceeds cap {MAX_TOTAL_DIM}")
    return dims


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.complex128)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HermitianOperator:
    """Square complex matrix on a tensor product of subsystems, A = A† up to
    1e-12 times its largest entry, in max-entry norm."""

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        mat = np.asarray(self.mat, dtype=np.complex128)
        n = math.prod(dims)
        if mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", _freeze(mat))
        dev, scale = np.max(np.abs(self.mat - self.mat.conj().T)), np.max(np.abs(self.mat))
        if dev > HERMITICITY_TOL * scale:
            raise ValueError(f"not Hermitian: max |A - A†| = {dev:.3e} exceeds {HERMITICITY_TOL} x max |A_ij| = {scale:.3e}")

    @property
    def total_dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class DensityMatrix(HermitianOperator):
    """Unit-trace positive-semidefinite Hermitian operator."""

    def __post_init__(self):
        super().__post_init__()
        tr = self.mat.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        diagonal = self.mat.diagonal()
        if np.count_nonzero(self.mat) == np.count_nonzero(diagonal):
            # no off-diagonal entry: the spectrum is the real diagonal, as eigvalsh returns it
            lam = diagonal.real.min()
        else:
            lam = np.linalg.eigvalsh(self.mat)[0]
        if lam < -PSD_TOL:
            raise ValueError(f"not PSD: min eigenvalue {lam:.3e}")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector with declared subsystem dimensions."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        vec = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if vec.shape[0] != math.prod(dims):
            raise ValueError(f"amplitude length {vec.shape[0]} does not match dims {dims}")
        if not np.all(np.isfinite(vec)):
            raise ValueError("amplitudes must be finite")
        nrm = np.linalg.norm(vec)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"norm {nrm} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", _freeze(vec))

    @property
    def total_dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class ProductState:
    """Tensor product of per-party pure states.

    A factor may span several qubits (a multi-qubit block), in which case it
    can be internally entangled while the overall state stays a product
    across factors.
    """

    factors: tuple[PureState, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("factors must be nonempty")
        if any(not isinstance(f, PureState) for f in factors):
            raise ValueError("every factor must be a PureState")
        _check_dims([d for f in factors for d in f.dims])
        object.__setattr__(self, "factors", factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for f in self.factors for d in f.dims)

    @property
    def amplitudes(self) -> np.ndarray:
        return reduce(np.kron, (f.amplitudes for f in self.factors))

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def to_pure_state(self) -> PureState:
        return PureState(self.dims, self.amplitudes)


State = Union[DensityMatrix, PureState, ProductState]


def identity(dims: Sequence[int]) -> HermitianOperator:
    dims = _check_dims(dims)
    return HermitianOperator(dims, np.eye(math.prod(dims)))


def maximally_mixed(dims: Sequence[int]) -> DensityMatrix:
    """I / d on `dims`, with the dims cap checked before the d x d matrix is built."""
    dims = _check_dims(dims)
    n = math.prod(dims)
    return DensityMatrix(dims, np.eye(n) / n)


def tensor(ops: Sequence[HermitianOperator]) -> HermitianOperator:
    """Kronecker product of operators, in list order; dims concatenate."""
    if not ops:
        raise ValueError("tensor requires at least one operator")
    dims = tuple(d for op in ops for d in op.dims)
    total = math.prod(dims)
    if total > MAX_TOTAL_DIM:
        raise CapacityError(f"total dimension {total} exceeds cap {MAX_TOTAL_DIM}")
    return HermitianOperator(dims, reduce(np.kron, (op.mat for op in ops)))


def expectation(op: HermitianOperator, state: State) -> float:
    """Real expectation value Tr(O rho) or <psi|O|psi>.

    Raises if the imaginary residual exceeds 1e-10 times the operator's largest
    entry (more than rounding on an operator Hermitian to 1e-12 of it can
    give) or on dimension mismatch.
    """
    if isinstance(state, DensityMatrix):
        if state.total_dim != op.total_dim:
            raise ValueError(f"dimension mismatch: {op.total_dim} vs {state.total_dim}")
        val = np.einsum("ij,ji->", op.mat, state.mat)
    elif isinstance(state, (PureState, ProductState)):
        vec = state.amplitudes
        if vec.shape[0] != op.total_dim:
            raise ValueError(f"dimension mismatch: {op.total_dim} vs {vec.shape[0]}")
        val = vec.conj() @ (op.mat @ vec)
    else:
        raise ValueError(f"unsupported state type {type(state).__name__}")
    scale = np.max(np.abs(op.mat))
    if abs(val.imag) > IMAG_TOL * scale:
        raise ValueError(f"imaginary residual {val.imag:.3e} exceeds {IMAG_TOL} x max |O_ij| = {scale:.3e}")
    return float(val.real)


def commutator_norm(a: HermitianOperator, b: HermitianOperator) -> float:
    """Max-entry norm of AB - BA."""
    if a.total_dim != b.total_dim:
        raise ValueError("dimension mismatch")
    return float(np.max(np.abs(a.mat @ b.mat - b.mat @ a.mat)))


def partial_transpose(rho: HermitianOperator, party_index: int) -> HermitianOperator:
    """Transpose applied to one tensor factor (0-based party index)."""
    dims = rho.dims
    k = len(dims)
    if not 0 <= party_index < k:
        raise ValueError(f"party_index {party_index} invalid for {k} parties")
    t = rho.mat.reshape(dims + dims)
    t = np.swapaxes(t, party_index, k + party_index)
    n = rho.total_dim
    return HermitianOperator(dims, t.reshape(n, n))


def bloch_form(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose 2x2 Hermitians M = m0 I + m.sigma into (m0, m) arrays, so
    that a qubit state with Bloch vector n has <M> = m0 + m.n."""
    m0 = np.trace(mats, axis1=-2, axis2=-1).real / 2.0
    mx = mats[..., 1, 0].real
    my = mats[..., 1, 0].imag
    mz = (mats[..., 0, 0] - mats[..., 1, 1]).real / 2.0
    return m0, np.stack([mx, my, mz], axis=-1)


def bloch_state(r: np.ndarray) -> np.ndarray:
    """Unit Bloch vector -> qubit amplitudes (theta from z, phase from x+iy).

    theta is atan2(|r_xy|, r_z), which keeps the digits of a small |r_xy|
    near a pole, where arccos(r_z) would lose them to the rounding of r_z.
    On the z axis the state is the basis vector, and at r_y = 0 the phase is
    sign(r_x), exactly: cos(pi/2) and exp(i pi) would leave rounding residue.
    """
    r_xy = math.hypot(r[0], r[1])
    if r_xy == 0.0:
        return np.array([1.0, 0.0] if r[2] >= 0.0 else [0.0, 1.0], dtype=complex)
    theta = math.atan2(r_xy, r[2])
    if r[1] == 0.0 or abs(r[0]) + abs(r[1]) <= 1e-15:
        phase = -1.0 if r[0] < -1e-15 else 1.0
    else:
        phase = np.exp(1j * math.atan2(r[1], r[0]))
    return np.array([np.cos(theta / 2.0), np.sin(theta / 2.0) * phase], dtype=complex)


def min_eigenvalue(h: HermitianOperator) -> float:
    """Smallest eigenvalue of a Hermitian operator."""
    return float(np.linalg.eigvalsh(h.mat)[0])


def is_ppt(rho: DensityMatrix, cut: int = 0) -> bool:
    """Peres-Horodecki test: positivity of the partial transpose.

    Exact separability test for two qubits. `cut` is the 0-based party whose
    factor is transposed; for a bipartite state either choice gives the same
    spectrum.
    """
    return min_eigenvalue(partial_transpose(rho, cut)) >= -PPT_TOL


def pure_density(state: Union[PureState, ProductState]) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi| of a pure state."""
    vec = state.amplitudes
    return DensityMatrix(state.dims, np.outer(vec, vec.conj()))


# ---------------------------------------------------------------------------
# JSON serialization.  Complex entries are stored as explicit [re, im] pairs
# to keep the files language-neutral.  Operators are row-major with
# len(entries) == n**2; pure states use len(entries) == n.
# ---------------------------------------------------------------------------


def _dims_and_entries(d: dict) -> tuple[tuple[int, ...], np.ndarray]:
    """Checked dims, and the entries as a vector (n entries) or a matrix (n**2)."""
    if not isinstance(d, dict):
        raise ValueError("an operator or state file holds a JSON object")
    for field in ("dims", "entries"):
        if field not in d:
            raise ValueError(f"operator or state file missing field {field!r}")
    dims = _check_dims(d["dims"])
    n = math.prod(dims)
    try:
        arr = np.asarray(d["entries"], dtype=np.float64)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("entries must be a list of [re, im] number pairs")
    flat = arr[:, 0] + 1j * arr[:, 1]
    if flat.shape[0] == n * n:
        return dims, flat.reshape(n, n)
    if flat.shape[0] == n:
        return dims, flat
    raise ValueError(f"entry count {flat.shape[0]} matches neither {n} (state) nor {n * n} (operator)")


def _array_to_entries(a: np.ndarray) -> list[list[float]]:
    flat = a.reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def operator_to_dict(op: HermitianOperator) -> dict:
    return {"dims": list(op.dims), "entries": _array_to_entries(op.mat)}


def operator_from_dict(d: dict) -> HermitianOperator:
    dims, arr = _dims_and_entries(d)
    if arr.ndim != 2:
        raise ValueError("entry count matches a state vector, not an operator")
    return HermitianOperator(dims, arr)


def state_to_dict(state: Union[PureState, ProductState]) -> dict:
    return {"dims": list(state.dims), "entries": _array_to_entries(state.amplitudes)}


def state_from_dict(d: dict) -> PureState:
    dims, arr = _dims_and_entries(d)
    if arr.ndim != 1:
        raise ValueError("entry count matches an operator, not a state vector")
    return PureState(dims, arr)


def density_from_dict(d: dict) -> DensityMatrix:
    """A state file as a density matrix: n entries are a pure state, n**2 a density matrix."""
    dims, arr = _dims_and_entries(d)
    return pure_density(PureState(dims, arr)) if arr.ndim == 1 else DensityMatrix(dims, arr)


def save_json(path: Union[str, Path], payload: dict) -> None:
    # NaN and Infinity are not JSON: refuse them rather than write an unreadable file
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def load_json(path: Union[str, Path]) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
