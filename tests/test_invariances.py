"""Invariances the paper's quantities must have, checked on seeded draws.

D, D_max and D_H^eps are unchanged under a joint unitary rho, sigma -> U rho U^dag,
U sigma U^dag.  A rotated commuting or diagonal pair leaves the route it came in on (the
diagonal shortcut, the joint eigensystem), so these relations also compare routes.  The test
restricted to free (diagonal) tests is unchanged under a joint incoherent unitary, a
permutation times phases.  Each draw has its own seed, (kind, d, index), so its id does not
depend on the other draws.

The seven closed-form rates of a pure state on R, A, B, C are unchanged under local
unitaries on R and A, which no party's decoder sees, and under incoherent unitaries on B and
C, which map free operations to free operations.  They are additive: the report of psi x phi,
each register the pair's composite, is the sum of the two reports.  The convex split's k, n
and F^2 are unchanged under U_P x V_Q with sigma -> V sigma V^dag.

The redistribution protocol never acts on the reference R, so a unitary on R leaves the
transfer overlap, the cobit count and the free test's d_f unchanged.  The final distance is
left out: classical-side-info's free test is a tie, all likelihood ratios 1 up to rounding,
and rounding picks the outcome that gets the fractional weight.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from qredist import qmat
from qredist.entropy import (
    max_relative_entropy,
    optimal_hypothesis_test,
    relative_entropy,
    restricted_hypothesis_test,
)
from qredist.protocols import (
    builtin_qsr_instances,
    convex_split_bound_check,
    qsr_full,
    random_split_instance,
)
from qredist.qmat import DensityOperator, RegisterSystem, StateVector
from qredist.rates import rate_report
from qredist.sampling import random_density, random_pure_state, random_unitary

EPS_GRID = (0.05, 0.1, 0.25)
KINDS = ("generic", "singular sigma", "rank-deficient rho", "commuting", "diagonal")
DIMS = tuple(range(2, 9))
DRAWS = 9
# the largest joint-unitary spread of D_H over these draws is 1.5e-13 (singular sigma); no
# draw is conditioned badly enough to need a tolerance scaled to it
DH_TOL = 1e-12


def draw(kind: str, d: int, index: int) -> tuple[DensityOperator, DensityOperator]:
    rng = np.random.default_rng([KINDS.index(kind), d, index])
    sys_ = qmat.system(("S", d))
    if kind in ("commuting", "diagonal"):
        u = random_unitary(d, rng) if kind == "commuting" else np.eye(d)
        return tuple(DensityOperator(sys_, (u * rng.dirichlet(np.ones(d))) @ u.conj().T)
                     for _ in range(2))
    rho_rank = max(1, d // 2) if kind == "rank-deficient rho" else d
    sigma_rank = d - 1 if kind == "singular sigma" else d
    return random_density(sys_, rng, rank=rho_rank), random_density(sys_, rng, rank=sigma_rank)


def rotated(rng: np.random.Generator, rho: DensityOperator, sigma: DensityOperator, u=None):
    u = random_unitary(rho.dim, rng) if u is None else u
    return tuple(DensityOperator(s.system, u @ s.matrix @ u.conj().T) for s in (rho, sigma))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_hypothesis_test_is_invariant_under_a_joint_unitary(kind, d):
    for index in range(DRAWS):
        rho, sigma = draw(kind, d, index)
        turned = rotated(np.random.default_rng([99, KINDS.index(kind), d, index]), rho, sigma)
        for eps in EPS_GRID:
            name = f"{kind}-d{d}-{index} eps={eps}"
            before = optimal_hypothesis_test(rho, sigma, eps)[0]
            after = optimal_hypothesis_test(*turned, eps)[0]
            assert before.finite == after.finite, name
            if before.finite:
                assert abs(before.value - after.value) <= DH_TOL, (name, before, after)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_relative_entropies_are_invariant_under_a_joint_unitary(kind, d):
    for index in range(DRAWS):
        rho, sigma = draw(kind, d, index)
        turned = rotated(np.random.default_rng([99, KINDS.index(kind), d, index]), rho, sigma)
        # both read log sigma or sigma^{-1/2} on sigma's support, whose rounding grows as
        # 1/lambda_min there: the largest spread is 3.7e-12 (D_max, lambda_min 3e-5)
        spectrum = np.linalg.eigvalsh(sigma.matrix)
        tol = 1e-12 + 2e-15 / spectrum[spectrum > qmat.EIG_FLOOR].min()
        for quantity in (relative_entropy, max_relative_entropy):
            name = f"{quantity.__name__} {kind}-d{d}-{index}"
            before, after = quantity(rho, sigma), quantity(*turned)
            assert before.finite == after.finite, name
            if before.finite:
                assert abs(before.value - after.value) <= tol, (name, before, after)


def incoherent_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """A permutation times phases: it maps diagonal states to diagonal states."""
    return np.eye(d)[rng.permutation(d)] * np.exp(2j * math.pi * rng.uniform(size=d))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_restricted_test_is_invariant_under_a_joint_incoherent_unitary(kind, d):
    for index in range(DRAWS):
        rho, sigma = draw(kind, d, index)
        rng = np.random.default_rng([98, KINDS.index(kind), d, index])
        turned = rotated(rng, rho, sigma, incoherent_unitary(d, rng))
        for eps in EPS_GRID:
            name = f"{kind}-d{d}-{index} eps={eps}"
            before = restricted_hypothesis_test(rho, sigma, eps)[0]
            after = restricted_hypothesis_test(*turned, eps)[0]
            assert before.finite == after.finite, name
            if before.finite:
                assert abs(before.value - after.value) <= 1e-12, (name, before, after)


QSR_NAMES = sorted(builtin_qsr_instances())


@pytest.mark.parametrize("n", [None, 4, 5, 6])
@pytest.mark.parametrize("name", QSR_NAMES)
def test_qsr_run_is_invariant_under_a_unitary_on_r(name, n):
    inst = replace(builtin_qsr_instances()[name], n_override=n)
    before = qsr_full(inst, budget=2 ** 18).details
    for index in range(3):
        rng = np.random.default_rng([97, QSR_NAMES.index(name), n or 0, index])
        amps, sys_ = qmat.apply_subsystem_matrix(
            inst.psi.amplitudes, inst.psi.system, random_unitary(2, rng), ["R"])
        after = qsr_full(replace(inst, psi=qmat.StateVector(sys_, amps)), budget=2 ** 18).details
        name_id = f"{name} n={before['n']} draw {index}"
        assert after["n"] == before["n"] and after["cobits"] == before["cobits"], name_id
        for key in ("overlap", "d_f"):
            assert abs(after[key] - before[key]) <= 1e-12, (name_id, key, before, after)


# the largest spread of a rate over these draws is 3.6e-15 (local unitaries on R and A)
RATE_TOL = 1e-12
RATE_DRAWS = 40


def pure_rabc(index: int, most: int = 4) -> StateVector:
    """A seeded pure state on R, A, B, C, each of dimension 1 to ``most``."""
    rng = np.random.default_rng([95, most, index])
    dims = rng.integers(1, most + 1, size=4)
    return random_pure_state(qmat.system(*zip("RABC", map(int, dims))), rng)


def acted(psi: StateVector, label: str, u: np.ndarray) -> StateVector:
    amps, sys_ = qmat.apply_subsystem_matrix(psi.amplitudes, psi.system, u, [label])
    return StateVector(sys_, amps)


def assert_same_rates(before: dict, after: dict, name: str) -> None:
    for key, value in before.items():
        assert abs(after[key] - value) <= RATE_TOL, (name, key, before, after)


@pytest.mark.parametrize("index", range(RATE_DRAWS))
def test_rates_are_invariant_under_local_unitaries_on_r_and_a(index):
    psi = pure_rabc(index)
    rng = np.random.default_rng([94, index])
    turned = psi
    for label in "RA":
        turned = acted(turned, label, random_unitary(psi.system.dim_of([label]), rng))
    assert_same_rates(rate_report(psi).entries(), rate_report(turned).entries(), str(index))


@pytest.mark.parametrize("index", range(RATE_DRAWS))
def test_rates_are_invariant_under_incoherent_unitaries_on_b_and_c(index):
    psi = pure_rabc(index)
    rng = np.random.default_rng([93, index])
    turned = psi
    for label in "BC":
        turned = acted(turned, label, incoherent_unitary(psi.system.dim_of([label]), rng))
    assert_same_rates(rate_report(psi).entries(), rate_report(turned).entries(), str(index))


def product_rabc(psi: StateVector, phi: StateVector) -> StateVector:
    """psi x phi on R, A, B, C, each register the composite of psi's and phi's."""
    k = len(psi.system.dims)
    amps = np.kron(psi.amplitudes, phi.amplitudes).reshape(psi.system.dims + phi.system.dims)
    amps = amps.transpose([axis for j in range(k) for axis in (j, k + j)])
    regs = tuple((label, d * e) for (label, d), (_, e) in zip(psi.system.registers,
                                                             phi.system.registers))
    return StateVector(RegisterSystem(regs), amps.reshape(-1))


@pytest.mark.parametrize("index", range(RATE_DRAWS // 2))
def test_rates_are_additive_on_product_states(index):
    psi, phi = pure_rabc(2 * index, most=3), pure_rabc(2 * index + 1, most=3)
    one, two = rate_report(psi).entries(), rate_report(phi).entries()
    both = rate_report(product_rabc(psi, phi)).entries()
    assert_same_rates({key: one[key] + two[key] for key in one}, both, str(index))


@pytest.mark.parametrize("index", range(60))
def test_convex_split_is_invariant_under_local_unitaries(index):
    rng = np.random.default_rng([96, index])
    rho, sigma = random_split_instance(rng, 0.5)
    u, v = random_unitary(rho.system.dim_of(["P"]), rng), random_unitary(sigma.dim, rng)
    w = np.kron(u, v)
    turned = (DensityOperator(rho.system, w @ rho.matrix @ w.conj().T),
              DensityOperator(sigma.system, v @ sigma.matrix @ v.conj().T))
    before = convex_split_bound_check(rho, sigma, eps=0.0, delta=0.25)
    after = convex_split_bound_check(*turned, eps=0.0, delta=0.25)
    assert after.n == before.n, index
    assert abs(after.k - before.k) <= 1e-12, (index, before, after)
    # F^2 takes roots of the spin blocks' small eigenvalues, which can move it by 2e-10
    # (seed [96, 27]), so it is held to the fidelity check's own margin
    assert abs(after.fidelity_squared - before.fidelity_squared) <= 1e-9, (index, before, after)
