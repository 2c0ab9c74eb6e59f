"""Closed-form communication rates for redistributing a register.

Conventions: the global state lives on registers R (reference), A (sender),
B (receiver side information), C (the register to move); rates are reported
in qubits per copy unless converted.  Register A or B may be trivial
(dimension one).  Cobit-denominated expressions are exactly twice their
qubit counterparts; the classical rate is denominated in classical bits in
either view.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .entropy import (
    _relative_entropy_factor,
    _relative_entropy_spectral,
    entropy_of_probs,
    relative_entropy_of_coherence,
    von_neumann_entropy,
)
from .protocols import QsrInstance, _rbc_product_frame, check_free_sigma_c, qsr_parameters
from .qmat import (
    EIG_FLOOR,
    DensityOperator,
    InvalidState,
    RegisterError,
    RegisterSystem,
    StateVector,
    _check_bound,
    vector_marginal,
)

FORM_TOL = 1e-9

QUBIT_UNITS = "qubits per copy"
COBIT_UNITS = "cobits per copy"


@dataclass(frozen=True)
class RateReport:
    """All closed-form rates for one input state, tagged with units.

    ``classical_rate_incoherent`` stays in classical bits per copy under
    either unit system; the remaining entries scale by two when converted
    from qubits to cobits.
    """

    q_min_std: float
    q_plus_e_min_std: float
    sum_bound_slepian_wolf: float
    q_min_incoherent: float
    q_min_schumacher_incoherent: float
    q_min_splitting_incoherent: float
    classical_rate_incoherent: float
    units: str = QUBIT_UNITS
    details: dict[str, Any] = field(default_factory=dict)

    _SCALED = (
        "q_min_std", "q_plus_e_min_std", "sum_bound_slepian_wolf",
        "q_min_incoherent", "q_min_schumacher_incoherent",
        "q_min_splitting_incoherent",
    )
    _FIELDS = _SCALED + ("classical_rate_incoherent",)

    def __post_init__(self):
        for name in self._FIELDS:
            val = getattr(self, name)
            if not math.isfinite(val):
                raise InvalidState(f"rate entry {name} is not finite: {val}")
        if self.units == QUBIT_UNITS:
            _check_bound("incoherent rate against the unrestricted rate", self.q_min_incoherent,
                         self.q_min_std, ">=", FORM_TOL)

    def in_units(self, units: str) -> "RateReport":
        if units == self.units:
            return self
        if {units, self.units} != {QUBIT_UNITS, COBIT_UNITS}:
            raise ValueError(f"unknown unit conversion {self.units!r} -> {units!r}")
        factor = 2.0 if units == COBIT_UNITS else 0.5
        changes = {name: getattr(self, name) * factor for name in self._SCALED}
        return replace(self, units=units, **changes)

    def entries(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self._FIELDS}

    def units_of(self, name: str) -> str:
        return self.units if name in self._SCALED else "classical bits per copy"

    def to_json(self) -> dict[str, Any]:
        return {"units": self.units, "rates": self.entries(), "details": self.details}


def _require(psi: StateVector, labels: set[str]) -> None:
    missing = labels - set(psi.system.labels)
    if missing:
        raise RegisterError(f"state is missing registers {sorted(missing)}")


class _PureMarginals:
    """Marginals of one pure state and their entropies, each taken once.

    A pure state's marginals on X and on its complement share their nonzero
    spectrum, so S(X) is read from whichever side has the smaller dimension;
    an empty side gives 0.  Marginals are kept per label set, with their
    registers in R, A, B, C order followed by any other register as stored.
    """

    def __init__(self, psi: StateVector):
        self.psi = psi
        order = [lab for lab in ("R", "A", "B", "C") if lab in psi.system.labels]
        self._order = order + [lab for lab in psi.system.labels if lab not in order]
        self._rho: dict[frozenset[str], DensityOperator] = {}
        self._s: dict[frozenset[str], float] = {}
        self._s_diag: dict[frozenset[str], float] = {}

    def rho(self, *labels: str) -> DensityOperator:
        key = frozenset(labels)
        if key not in self._rho:
            self._rho[key] = vector_marginal(self.psi, [l for l in self._order if l in key])
        return self._rho[key]

    def entropy(self, *labels: str) -> float:
        """S(X), from the marginal on X or on its complement, whichever is smaller."""
        key = frozenset(labels)
        if key not in self._s:
            rest = [l for l in self._order if l not in key]
            sys_ = self.psi.system
            side = labels if sys_.dim_of(labels) <= sys_.dim_of(rest) else rest
            self._s[key] = von_neumann_entropy(self.rho(*side)) if side else 0.0
        return self._s[key]

    def diagonal_entropy(self, *labels: str) -> float:
        """S of the dephased marginal on X: the entropy of its diagonal."""
        key = frozenset(labels)
        if key not in self._s_diag:
            self._s_diag[key] = entropy_of_probs(np.diagonal(self.rho(*labels).matrix).real)
        return self._s_diag[key]

    def cmi(self) -> float:
        """I(C:R|B) = S(BC) + S(RB) - S(RBC) - S(B), guarded by strong subadditivity."""
        _require(self.psi, {"R", "B", "C"})
        v = (self.entropy("B", "C") + self.entropy("R", "B")
             - self.entropy("R", "B", "C") - self.entropy("B"))
        _check_bound("strong subadditivity of I(C:R|B)", v, 0.0, ">=", 1e-9)
        return v

    def standard_rates(self) -> tuple[float, float]:
        q = 0.5 * self.cmi()
        return q, self.entropy("B", "C") - self.entropy("B")

    def sum_bound(self) -> float:
        _require(self.psi, {"B", "C"})
        return self.diagonal_entropy("B", "C") - self.diagonal_entropy("B")

    def coherence(self, *labels: str) -> float:
        """Relative entropy of coherence of the marginal on X."""
        return self.diagonal_entropy(*labels) - self.entropy(*labels)

    def free_sigma(self, sigma_c: DensityOperator | None) -> np.ndarray:
        """The diagonal of the free reference state: sigma_c's, or by default rho_C's, which
        is the diagonal of the dephased C marginal."""
        if sigma_c is None:
            return np.diagonal(self.rho("C").matrix).real
        check_free_sigma_c(sigma_c, self.psi.system.dim_of(["C"]))
        return np.diagonal(sigma_c.matrix).real

    def rate_forms(self, sigma_c: DensityOperator | None) -> tuple[float, float, float]:
        """The entropy, relative-entropy and product forms of the incoherent rate.

        A dephased state is its diagonal, so no dephased matrix is formed.  The
        relative-entropy form takes R_c(rho) = D(rho||dephased rho) as the entropy of rho's
        diagonal minus a fresh S(rho), so rho_BC is formed and validated for its diagonal
        and decomposed once for this form.  The product form is D(rho_RBC||rho_RB x sigma),
        read in the eigenframe of _rbc_product_frame, minus the classical relative entropy
        of rho_BC's diagonal against kron(rho_B's diagonal, s), for s the diagonal of the
        free sigma (diagonal up to COHERENCE_TOL; the form is taken against s).  Its first
        term's spectrum is the SVD of psi's factor X, not of the marginal on the rest that
        S(RBC) above decomposes, so the product form stays independent of the Schmidt-side
        entropies.
        """
        cmi = self.cmi()
        rho_bc, rho_b = self.rho("B", "C"), self.rho("B")
        form_entropy = cmi + self.coherence("B", "C") - self.coherence("B")
        form_relent = (cmi + relative_entropy_of_coherence(rho_bc)
                       - relative_entropy_of_coherence(rho_b))

        # the oracle that would catch a wrong entropy above
        s = self.free_sigma(sigma_c)
        d1 = _relative_entropy_factor(*_rbc_product_frame(self.psi, self.rho("R", "B").matrix, s))
        p_bc = np.diagonal(rho_bc.matrix).real
        q_bc = np.kron(np.diagonal(rho_b.matrix).real, s)
        kernel_mass = float(np.max(p_bc[q_bc <= EIG_FLOOR], initial=0.0))
        d2 = _relative_entropy_spectral(p_bc, p_bc, kernel_mass, q_bc)
        if not (d1.finite and d2.finite):
            raise InvalidState("reference state sigma_c does not support the C marginal")
        form_product = d1.value - d2.value
        return form_entropy, form_relent, form_product

    def incoherent_rate(self, sigma_c: DensityOperator | None) -> float:
        """Half of I(C:R|B) plus the local-coherence gap between the (B, C) and B marginals,
        once the three forms agree to ``FORM_TOL``."""
        a, b, c = self.rate_forms(sigma_c)
        _check_bound("spread of the three incoherent rate forms", max(a, b, c) - min(a, b, c),
                     0.0, "<=", FORM_TOL)
        return 0.5 * a

    def schumacher_rate(self) -> float:
        return 0.5 * (self.entropy("C") + self.diagonal_entropy("C"))

    def splitting_rate(self) -> float:
        _require(self.psi, {"R", "C"})
        mi = self.entropy("C") + self.entropy("R") - self.entropy("R", "C")
        return 0.5 * (mi + self.coherence("C"))


# ---------------------------------------------------------------------------
# unrestricted rates

def standard_qsr_rates(psi: StateVector) -> tuple[float, float]:
    """(Q, Q + E): half the conditional mutual information, and S(C|B)."""
    return _PureMarginals(psi).standard_rates()


# ---------------------------------------------------------------------------
# rates with a free (incoherent) decoder

def incoherent_rate_forms(
    psi: StateVector, sigma_c: DensityOperator | None = None
) -> tuple[float, float, float]:
    """The cobit-denominated rate along three independent numerical routes.

    Entropy differences of dephased marginals, direct relative entropies to
    the dephased marginals, and the difference of relative entropies
    against a product with a free reference state; the three agree exactly
    in closed form, so disagreement flags a numerical defect.
    """
    return _PureMarginals(psi).rate_forms(sigma_c)


def incoherent_schumacher_rate(rho_c: DensityOperator) -> float:
    """Compression rate with incoherent decoding: mean of S and dephased S."""
    return 0.5 * (von_neumann_entropy(rho_c)
                  + entropy_of_probs(np.diagonal(rho_c.matrix).real))


# ---------------------------------------------------------------------------
# one-shot bound

def one_shot_achievability_bound(instance: QsrInstance) -> float:
    """Sufficient cobit count for one run of the instance.

    The leading term is the plain max-relative entropy k of
    :func:`~qredist.protocols.qsr_parameters`, which dominates the smoothed
    max-relative entropy, so the returned count remains sufficient.
    """
    params = qsr_parameters(instance)
    if math.isinf(params.d_f):
        raise InvalidState("free test diverges; sigma_c unsupported on the C marginal")
    const = 2.0 * math.log2(2.0 / (instance.eps1 * instance.gamma ** 2))
    return params.k - params.d_f + const


# ---------------------------------------------------------------------------
# report assembly and product copies

def rate_report(
    psi: StateVector, sigma_c: DensityOperator | None = None
) -> RateReport:
    """Evaluate every closed-form rate on one (R, A, B, C) pure state, whatever
    order it stores its registers in."""
    marginals = _PureMarginals(psi)
    q, q_plus_e = marginals.standard_rates()
    q_inc = marginals.incoherent_rate(sigma_c)
    return RateReport(
        q_min_std=q,
        q_plus_e_min_std=q_plus_e,
        sum_bound_slepian_wolf=marginals.sum_bound(),
        q_min_incoherent=q_inc,
        q_min_schumacher_incoherent=marginals.schumacher_rate(),
        q_min_splitting_incoherent=marginals.splitting_rate(),
        classical_rate_incoherent=2.0 * q_inc,
        details={"registers": {lab: d for lab, d in psi.system.registers}},
    )


def tensor_power_state(psi: StateVector, m: int) -> StateVector:
    """m independent copies presented on the original register labels.

    Each output register is the m-fold composite of the matching input
    register, so every rate formula applies unchanged and additivity can be
    checked directly.
    """
    if m < 1:
        raise ValueError(f"copy count must be positive, got {m}")
    if m == 1:
        return psi
    amps = functools.reduce(np.kron, [psi.amplitudes] * m)
    k = len(psi.system.dims)
    # axis i k + j of the m-fold product is copy i of register j; group each register's copies
    grouped = amps.reshape(psi.system.dims * m).transpose(
        [i * k + j for j in range(k) for i in range(m)])
    merged = RegisterSystem(tuple((lab, d ** m) for lab, d in psi.system.registers))
    return StateVector(merged, grouped.reshape(-1))
