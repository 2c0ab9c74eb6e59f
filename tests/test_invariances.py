"""Invariances the paper's quantities must have, checked on seeded draws.

D_H^eps is unchanged under a joint unitary rho, sigma -> U rho U^dag, U sigma U^dag.  A
rotated commuting or diagonal pair leaves the route it came in on (the diagonal shortcut,
the joint eigensystem), so these relations also compare routes.  The test restricted to free
(diagonal) tests is unchanged under a joint incoherent unitary, a permutation times phases.
Each draw has its own seed, (kind, d, index), so its id does not depend on the other draws.

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
from qredist.entropy import optimal_hypothesis_test, restricted_hypothesis_test
from qredist.protocols import builtin_qsr_instances, qsr_full
from qredist.qmat import DensityOperator
from qredist.sampling import random_density, random_unitary

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
def test_restricted_test_is_invariant_under_a_joint_incoherent_unitary(kind, d):
    for index in range(DRAWS):
        rho, sigma = draw(kind, d, index)
        rng = np.random.default_rng([98, KINDS.index(kind), d, index])
        perm = np.eye(d)[rng.permutation(d)]
        phases = np.exp(2j * math.pi * rng.uniform(size=d))
        turned = rotated(rng, rho, sigma, perm * phases)
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
