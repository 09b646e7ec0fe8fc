"""Sparse-state readout emulation and tomography costs.

A normalised solution vector read out of a quantum register yields
samples from |v_i|^2.  For an (approximately) r-sparse vector the
support is recovered from a first round of shots, amplitudes are then
estimated on that support from a second round, and signs are taken
from the classical vector (phase estimation is outside this model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReadoutReport",
    "sample_state",
    "recover_sparse",
    "tomography_cost_model",
]


def sample_state(v, shots: int, seed: int) -> np.ndarray:
    """Multinomial measurement counts from the normalised state.

    Deterministic for a fixed seed; returns an integer array of the
    same length as v summing to shots.
    """
    v = np.asarray(v, dtype=float)
    if shots < 1:
        raise ValueError("need shots >= 1")
    nrm2 = float(v @ v)
    if nrm2 == 0.0:
        raise ValueError("cannot sample from the zero vector")
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, v**2 / nrm2)


@dataclass
class ReadoutReport:
    support: np.ndarray        # recovered indices, sorted
    true_support: np.ndarray   # top-r indices of |v|, sorted
    amplitudes: np.ndarray     # signed estimates aligned with ``support``
    l2_error: float            # against the normalised truth, full length
    success: bool
    ambiguous: bool            # count tie at the support boundary


def recover_sparse(
    v,
    r: int,
    shots: int,
    amp_shots: int,
    seed: int,
    threshold: float = 0.0,
) -> ReadoutReport:
    """Two-round sparse readout of a classical stand-in vector.

    Round one takes ``shots`` samples and keeps the r highest-count
    indices with frequency >= threshold as the support (a tie across
    the cut is flagged as ambiguous, not broken silently: the report's
    support uses lowest-index order among tied counts).  Round two
    takes ``amp_shots`` samples; amplitude magnitudes are estimated as
    sqrt(count/amp_shots) on the support and signed by the classical
    vector.  Success means the support matches the true top-r set of
    |v| exactly.
    """
    v = np.asarray(v, dtype=float)
    if not (1 <= r <= len(v)):
        raise ValueError(f"need 1 <= r <= {len(v)}")
    counts = sample_state(v, shots, seed)
    freq = counts / shots
    eligible = np.flatnonzero(freq >= max(threshold, 1e-300))
    # sort by count descending, index ascending for determinism
    order = eligible[np.lexsort((eligible, -counts[eligible]))]
    take = order[:r]
    ambiguous = False
    if len(order) > r and counts[order[r]] == counts[order[r - 1]]:
        ambiguous = True
    support = np.sort(take)

    truth_order = np.lexsort((np.arange(len(v)), -np.abs(v)))
    true_support = np.sort(truth_order[:r])

    counts2 = sample_state(v, amp_shots, seed + 1)
    est = np.sqrt(counts2[support] / amp_shots) * np.sign(v[support])
    vn = v / np.linalg.norm(v)
    full = np.zeros(len(v))
    full[support] = est
    return ReadoutReport(
        support=support,
        true_support=true_support,
        amplitudes=est,
        l2_error=float(np.linalg.norm(full - vn)),
        success=bool(np.array_equal(support, true_support)),
        ambiguous=ambiguous,
    )


def tomography_cost_model(m_qubits: int, r: int, eps: float) -> float:
    """Sample-count estimate m^2 r^3 / eps^2 for sparse readout.

    m_qubits is the register width log2(N); eps the target l2 accuracy
    of the recovered amplitudes.
    """
    if m_qubits < 1 or r < 1:
        raise ValueError("need m_qubits >= 1 and r >= 1")
    if eps <= 0.0:
        raise ValueError("need eps > 0")
    return float(m_qubits**2 * r**3 / eps**2)
