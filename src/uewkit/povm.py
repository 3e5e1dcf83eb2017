"""Three-outcome qubit measurement family and product test/constraint operators.

The device measures {Pi_1, Pi_2, Pi_3} with

    Pi_1 = x |V><V|,   Pi_2 = |chi+><chi+|,   Pi_3 = |chi-><chi-|,
    |chi+-> = |H>/sqrt(2) +- e^{i theta} sqrt((1-x)/2) |V>,

where |H>, |V> is the computational basis (index 0, 1).  The chi vectors are
kept unnormalized exactly as defined; normalizing them would change the
spectra of Pi_2, Pi_3 and every bound built on them.  Outcome indices are
1-based, matching the device labels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import HermitianOperator, commutator_norm, operator_from_dict, operator_to_dict, tensor

__all__ = [
    "ThreeOutcomeParams",
    "Effect",
    "Povm",
    "ThreeOutcomePovm",
    "chi_vectors",
    "build_three_outcome",
    "product_operator",
    "selected_effects",
    "AdmissibilityReport",
    "uew_admissibility_check",
    "povm_to_dict",
    "povm_from_dict",
]

COMPLETENESS_TOL = 1e-10
EFFECT_PSD_TOL = 1e-10
COMMUTE_TOL = 1e-10


@dataclass(frozen=True)
class ThreeOutcomeParams:
    """Device parameters: reflectivity x in (0,1), free phase theta.

    x = 0 and x = 1 are rejected: at the endpoints the chi vectors lose the
    |V> asymmetry that makes Pi_1 and Pi_2 noncommuting, and the device
    degenerates to a two-outcome measurement.
    """

    x: float
    theta: float = 0.0

    def __post_init__(self):
        try:
            x, theta = float(self.x), float(self.theta)
        except (TypeError, ValueError):
            raise ValueError(f"x and theta must be numbers, got x={self.x!r}, theta={self.theta!r}") from None
        if not 0.0 < x < 1.0 or not math.isfinite(x):
            raise ValueError(f"x must lie strictly inside (0, 1), got {x}")
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        theta %= 2.0 * math.pi
        if theta == 2.0 * math.pi:  # a tiny negative theta rounds up to 2 pi
            theta = 0.0
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class Effect:
    """Single POVM element: PSD with PSD complement I - op."""

    op: HermitianOperator

    def __post_init__(self):
        spectrum = np.linalg.eigvalsh(self.op.mat)
        if spectrum[0] < -EFFECT_PSD_TOL:
            raise ValueError("effect is not PSD")
        if spectrum[-1] > 1.0 + EFFECT_PSD_TOL:
            raise ValueError("effect exceeds identity (I - op not PSD)")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.op.dims


@dataclass(frozen=True)
class Povm:
    """Ordered list of effects on one party, summing to the identity."""

    effects: tuple[Effect, ...]

    def __post_init__(self):
        effects = tuple(self.effects)
        if not effects:
            raise ValueError("a POVM needs at least one effect")
        dims = effects[0].dims
        if any(e.dims != dims for e in effects):
            raise ValueError("all effects must share the same dims")
        total = sum(e.op.mat for e in effects)
        dev = np.max(np.abs(total - np.eye(effects[0].op.total_dim)))
        if dev > COMPLETENESS_TOL:
            raise ValueError(f"effects do not sum to identity (max deviation {dev:.3e})")
        object.__setattr__(self, "effects", effects)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.effects[0].dims

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    @functools.cached_property
    def effect_stack(self) -> np.ndarray:
        """The effect matrices stacked along a leading outcome axis, read-only."""
        stack = np.stack([e.op.mat for e in self.effects])
        stack.setflags(write=False)
        return stack

    def effect(self, outcome: int) -> Effect:
        """Effect for a 1-based outcome index."""
        if not 1 <= outcome <= len(self.effects):
            raise ValueError(f"outcome {outcome} out of range 1..{len(self.effects)}")
        return self.effects[outcome - 1]


@dataclass(frozen=True)
class ThreeOutcomePovm(Povm):
    """Three-outcome device {Pi_1, Pi_2, Pi_3} and the parameters it was built
    from; its chi vectors are `chi_vectors(params)`."""

    params: ThreeOutcomeParams


def chi_vectors(params: ThreeOutcomeParams) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized |chi+>, |chi-> for the given device parameters."""
    amp = math.sqrt((1.0 - params.x) / 2.0) * np.exp(1j * params.theta)
    chi_p = np.array([1.0 / math.sqrt(2.0), amp])
    chi_m = np.array([1.0 / math.sqrt(2.0), -amp])
    return chi_p, chi_m


@functools.lru_cache(maxsize=32)
def build_three_outcome(params: ThreeOutcomeParams) -> ThreeOutcomePovm:
    """Build the three-outcome qubit POVM for the given parameters.

    Completeness holds by construction: the chi+/chi- cross terms cancel and
    the |V><V| weights add up to 1 - x + x.  Equal parameters (theta is
    normalised first) return the same device object, checked once; its
    matrices are read-only, so sharing it is safe.
    """
    chi_p, chi_m = chi_vectors(params)
    pi1 = np.zeros((2, 2), dtype=np.complex128)
    pi1[1, 1] = params.x
    pi2 = np.outer(chi_p, chi_p.conj())
    pi3 = np.outer(chi_m, chi_m.conj())
    effects = tuple(Effect(HermitianOperator((2,), m)) for m in (pi1, pi2, pi3))
    return ThreeOutcomePovm(effects=effects, params=params)


def selected_effects(povms: Sequence[Povm], outcome_indices: Sequence[int]) -> list[Effect]:
    """One effect per party, chosen by 1-based outcome index."""
    povms = list(povms)
    outcome_indices = list(outcome_indices)
    if len(povms) != len(outcome_indices):
        raise ValueError(
            f"{len(povms)} parties but {len(outcome_indices)} outcome indices"
        )
    if not povms:
        raise ValueError("at least one party is required")
    return [p.effect(i) for p, i in zip(povms, outcome_indices)]


def product_operator(povms: Sequence[Povm], outcome_indices: Sequence[int]) -> HermitianOperator:
    """Tensor product of selected effects, one per party (1-based outcomes).

    With the three-outcome device this builds the constraint operator
    C = (x)Pi_1 x Pi_1 x ... for indices (1,...,1) and the test operator
    L = Pi_2 x Pi_2 x ... for indices (2,...,2); arbitrary index tuples are
    allowed.
    """
    return tensor([e.op for e in selected_effects(povms, outcome_indices)])


@dataclass(frozen=True)
class AdmissibilityReport:
    commutes: bool
    commutator_norm: float


def uew_admissibility_check(c_op: HermitianOperator, l_op: HermitianOperator) -> AdmissibilityReport:
    """Necessary-condition check on a constraint/test operator pair.

    If separable C and L commute, the constrained separable supremum equals
    the constrained supremum over all quantum states, so the pair cannot
    detect entanglement: commutes=True means "this pair cannot beat the
    unconstrained bound".  Non-commutation is necessary, not sufficient.
    The commutator's norm is read against COMMUTE_TOL ||C|| ||L||, each in
    the max-entry norm `commutator_norm` takes, so the verdict does not
    change with the scale of either operator (a device at x = 1e-10 has
    ||C|| ~ 1e-20).
    """
    nrm = commutator_norm(c_op, l_op)
    scale = float(np.max(np.abs(c_op.mat)) * np.max(np.abs(l_op.mat)))
    return AdmissibilityReport(commutes=nrm <= COMMUTE_TOL * scale, commutator_norm=nrm)


# ---------------------------------------------------------------------------
# JSON format: {"parties": [{"x": 0.6667, "theta": 0.0}, ...]} for built-in
# three-outcome devices, or {"parties": [{"effects": [<operator dict>, ...]}]}
# with explicit matrices in the qcore operator format.
# ---------------------------------------------------------------------------


def povm_to_dict(povms: Sequence[Povm]) -> dict:
    parties = []
    for p in povms:
        if isinstance(p, ThreeOutcomePovm):
            parties.append({"x": p.params.x, "theta": p.params.theta})
        else:
            parties.append({"effects": [operator_to_dict(e.op) for e in p.effects]})
    return {"parties": parties}


def povm_from_dict(d: dict) -> list[Povm]:
    if not isinstance(d, dict) or not isinstance(d.get("parties"), list) or not d["parties"]:
        raise ValueError("POVM file needs a nonempty 'parties' list")
    povms: list[Povm] = []
    for party in d["parties"]:
        if not isinstance(party, dict):
            raise ValueError(f"each party is a JSON object, got {party!r}")
        if "effects" in party:
            if not isinstance(party["effects"], list):
                raise ValueError("'effects' must be a list of operators")
            effects = tuple(Effect(operator_from_dict(e)) for e in party["effects"])
            povms.append(Povm(effects))
        elif "x" in party:
            params = ThreeOutcomeParams(x=party["x"], theta=party.get("theta", 0.0))
            povms.append(build_three_outcome(params))
        else:
            raise ValueError("each party needs either 'x' (+optional 'theta') or 'effects'")
    return povms
