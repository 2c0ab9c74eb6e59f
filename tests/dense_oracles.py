"""The dense max-relative entropy, kept as the oracle for the routes that read it in the
eigenbasis of a product: ``entropy._max_relative_entropy_eig`` and the slot count k of
``protocols.convex_split_bound_check``, ``random_split_instance`` and ``qsr_parameters``.
"""

from __future__ import annotations

import math

import numpy as np

from qredist.entropy import SUPPORT_TOL
from qredist.qmat import EIG_FLOOR


def dense_max_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """log2 of the largest eigenvalue of isq rho isq, isq = sigma^{-1/2} on sigma's support,
    from a dense eigh of sigma; infinite when rho compressed onto sigma's kernel has an
    eigenvalue above SUPPORT_TOL."""
    evs, vecs = np.linalg.eigh(sigma)
    kernel = vecs[:, evs <= EIG_FLOOR]
    if kernel.shape[1] and np.linalg.eigvalsh(kernel.conj().T @ rho @ kernel)[-1] > SUPPORT_TOL:
        return math.inf
    inv_half = np.where(evs > EIG_FLOOR, 1.0 / np.sqrt(np.clip(evs, EIG_FLOOR, None)), 0.0)
    isq = (vecs * inv_half) @ vecs.conj().T
    return float(np.log2(max(float(np.linalg.eigvalsh(isq @ rho @ isq)[-1]), EIG_FLOOR)))
