"""Random-simplex moment estimation over a contact decomposition.

Sampling d contact points independently with probabilities c_i/d and coning
them over the origin gives a random simplex whose volume moments admit a
closed lower bound, 1/(sqrt(d!) * d^(d/2)). The estimators here exist to
measure both the first moment and the root second moment against that value;
degenerate draws (repeated or dependent points) are legitimate outcomes with
volume zero, so samples are returned as bare vertex arrays rather than as
``Simplex`` objects, which reject flat input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import simplex_volume
from .bounds import simplex_volume_floor
from .john import ContactDecomposition

__all__ = ["MomentReport", "pivovarov_moments", "pivovarov_sample", "sample_indices"]

_TRIAL_BLOCK = 4096  # trials drawn and gathered at once, so the gather stays small


def sample_indices(dec: ContactDecomposition, rng: np.random.Generator, size) -> np.ndarray:
    """Contact indices of the given size (an int or a shape), drawn i.i.d.
    by one `rng.choice` call with probabilities c_i / d (the weights sum to
    d, so these are a distribution). Repeats are allowed."""
    p = dec.weights / dec.weights.sum()
    return rng.choice(dec.size, size=size, replace=True, p=p / p.sum())


def pivovarov_sample(dec: ContactDecomposition, seed=None) -> np.ndarray:
    """Draw one random simplex as a (d+1, d) vertex array, origin first.

    The other vertices are d contact points drawn by `sample_indices`.
    """
    d = dec.points.shape[1]
    idx = sample_indices(dec, np.random.default_rng(seed), d)
    return np.vstack([np.zeros(d), dec.points[idx]])


@dataclass(frozen=True)
class MomentReport:
    """Monte Carlo volume moments with standard errors.

    rms is sqrt(mean_sq); se_rms is its first-order propagated error,
    se_sq / (2 * rms). floor is the closed-form value both moments are
    compared against, 1/(sqrt(d!) * d^(d/2)).
    """

    dim: int
    trials: int
    mean_vol: float
    se_mean: float
    mean_sq: float
    se_sq: float
    rms: float
    se_rms: float
    floor: float


def pivovarov_moments(dec: ContactDecomposition, trials: int, seed=None) -> MomentReport:
    """Estimate E[vol] and E[vol^2] of the random simplex over `trials` draws,
    taken _TRIAL_BLOCK at a time: consecutive draws are the draw of all."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    d = dec.points.shape[1]
    rng = np.random.default_rng(seed)
    vols = np.empty(trials)
    for start in range(0, trials, _TRIAL_BLOCK):
        block = min(_TRIAL_BLOCK, trials - start)
        vols[start : start + block] = simplex_volume(dec.points[sample_indices(dec, rng, (block, d))])
    sq = vols * vols

    def with_se(values: np.ndarray) -> tuple[float, float]:
        mean = float(values.mean())
        if trials < 2:
            return mean, math.inf
        return mean, float(values.std(ddof=1)) / math.sqrt(trials)

    mean_vol, se_mean = with_se(vols)
    mean_sq, se_sq = with_se(sq)
    rms = math.sqrt(mean_sq)
    se_rms = se_sq / (2.0 * rms) if rms > 0.0 else math.inf
    return MomentReport(
        dim=d,
        trials=trials,
        mean_vol=mean_vol,
        se_mean=se_mean,
        mean_sq=mean_sq,
        se_sq=se_sq,
        rms=rms,
        se_rms=se_rms,
        floor=simplex_volume_floor(d),
    )
