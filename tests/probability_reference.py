"""Scalar choice-probability kernels, kept as reference oracles.

One utility vector at a time, straight from the definition; the package
computes the same probabilities through the batched corrected softmax of
``soa_lab.mle.ChoiceArrays``.
"""

import numpy as np

from soa_lab import InvalidInputError, log_softmax


def mnl_prob_full(v: np.ndarray) -> np.ndarray:
    """Choice probabilities over the full set: exp(v_j)/sum_k exp(v_k)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidInputError("utilities must be a non-empty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("utilities must be finite")
    return np.exp(log_softmax(v))


def canonical_corrections(c: np.ndarray) -> np.ndarray:
    """Shift a correction vector so its maximum is exactly zero.

    Shifting by a constant cannot change any probability, and it makes a
    shared-constant correction vector vanish bit-for-bit, so corrected and
    uncorrected computations coincide exactly whenever they should.
    """
    c = np.asarray(c, dtype=float)
    return c - np.max(c)


def mnl_prob_sampled_corrected(v_members: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Probabilities over a sampled subset with additive utility corrections.

    P_j = exp(v_j + c_j) / sum_k exp(v_k + c_k), computed with the correction
    vector re-centred (a no-op for the result) and max-shifted utilities.
    """
    v = np.asarray(v_members, dtype=float)
    c = np.asarray(c, dtype=float)
    if v.shape != c.shape:
        raise InvalidInputError(
            f"utility/correction length mismatch: {v.shape} vs {c.shape}")
    if v.ndim != 1 or v.size == 0:
        raise InvalidInputError("utilities must be a non-empty 1-d vector")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(c))):
        raise InvalidInputError("utilities and corrections must be finite")
    return np.exp(log_softmax(v + canonical_corrections(c)))


def padded_row_log_probs(v: np.ndarray, c: np.ndarray,
                         pad: np.ndarray) -> np.ndarray:
    """ln P_j over one evaluation row as the estimators hold it: members
    then padding.  The corrections are re-centred on the members, the
    padding gets -inf, and one log softmax runs over the whole row, so the
    padding's zero terms sit in the row's sum."""
    v, c = np.asarray(v, dtype=float), np.asarray(c, dtype=float)
    pad = np.asarray(pad, dtype=bool)
    if not v.shape == c.shape == pad.shape or v.ndim != 1 or pad.all():
        raise InvalidInputError("one row of utilities, corrections and pad "
                                "with at least one member")
    c = np.where(pad, 0.0, c - np.max(c[~pad]))
    return log_softmax(np.where(pad, -np.inf, v + c))


def row_score(x: np.ndarray, chosen: int, log_probs: np.ndarray) -> np.ndarray:
    """One row's term of the quasi log-likelihood score, x_chosen -
    sum_j P_j x_j, over the row's (m, K) member attributes (padding 0)."""
    return x[chosen] - np.einsum("m,mk->k", np.exp(log_probs), x)
