"""BPSK over AWGN, normalized LLRs, and LLR preprocessing maps."""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelParams",
    "MapSpec",
    "bpsk",
    "trial_rng",
    "trial_noise",
    "transmit_awgn",
    "normalized_llr",
    "apply_map",
    "qfunc",
    "high_noise_prob",
    "ebn0_db",
]


def _index(value):
    """``operator.index(value)``, with a bool refused by the TypeError that a
    float gets: True is no count, seed or index."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"'{type(value).__name__}' object cannot be interpreted as an integer")
    return operator.index(value)


@dataclass(frozen=True)
class ChannelParams:
    """Per-dimension AWGN noise variance; ``eta`` is the LLR normalizer."""

    sigma2: float

    def __post_init__(self):
        if (isinstance(self.sigma2, (bool, np.bool_))
                or not (math.isfinite(self.sigma2) and self.sigma2 > 0)):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        # eta = sigma2 / 2 is exact, as normalized_llr needs, once it is normal
        if self.sigma2 < 2.0 * sys.float_info.min:
            raise ValueError(f"sigma2 must be at least 2 * sys.float_info.min = "
                             f"{2.0 * sys.float_info.min!r}, got {self.sigma2!r}")

    @property
    def eta(self):
        # Chosen so a noiseless +1 symbol yields LLR exactly +1.
        return self.sigma2 / 2.0

    @property
    def sigma(self):
        return math.sqrt(self.sigma2)


@dataclass(frozen=True)
class MapSpec:
    """LLR preprocessing map.

    Kinds: ``trivial`` (identity), ``threshold`` (clip to [-W, +W], param = W),
    ``quantize2`` (sign quantization to {+L, -L} with 0 mapping to +L,
    param = L).
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in ("trivial", "threshold", "quantize2"):
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.kind == "trivial":
            if self.param is not None:
                raise ValueError("trivial map takes no parameter")
        else:
            if (self.param is None or isinstance(self.param, (bool, np.bool_))
                    or not (math.isfinite(self.param) and self.param > 0)):
                raise ValueError(f"{self.kind} map needs a positive finite parameter")

    @classmethod
    def trivial(cls):
        return cls("trivial")

    @classmethod
    def threshold(cls, w):
        return cls("threshold", float(w))

    @classmethod
    def quantize2(cls, l):
        return cls("quantize2", float(l))

    @classmethod
    def parse(cls, text):
        """Parse ``trivial``, ``threshold:W`` or ``quantize2:L``."""
        name, sep, arg = text.strip().partition(":")
        if name == "trivial":
            if sep:
                raise ValueError("trivial map takes no parameter")
            return cls.trivial()
        if name in ("threshold", "quantize2"):
            if not sep:
                raise ValueError(f"{name} map needs a parameter, e.g. {name}:1.0")
            return cls(name, float(arg))
        raise ValueError(f"unknown map {text!r}")

    def __str__(self):
        if self.kind == "trivial":
            return "trivial"
        short = f"{self.param:g}"  # repr where :g would not parse back to param
        return f"{self.kind}:{short if float(short) == self.param else repr(self.param)}"

    def apply(self, lam):
        lam = np.asarray(lam, dtype=float)
        if not np.isfinite(lam).all():
            raise ValueError("LLR vector must be finite")
        if self.kind == "trivial":
            return lam.copy()
        if self.kind == "threshold":
            return np.clip(lam, -self.param, self.param)
        return np.where(lam >= 0.0, self.param, -self.param)


def bpsk(bits):
    """Antipodal signal map: bit 0 to +1, bit 1 to -1."""
    x = np.asarray(bits)
    if not ((x == 0) | (x == 1)).all():
        raise ValueError("bpsk input must be a 0/1 vector")
    return 1.0 - 2.0 * x.astype(float)


def trial_rng(seed, trial, stream=0):
    """Independent generator for one Monte Carlo trial.

    Substreams are keyed by (seed, trial, stream) through numpy's
    SeedSequence entropy-mixing hash, so draws are reproducible and
    independent of the order in which trials execute. ``stream`` separates
    different random uses inside the same trial.
    """
    seed, trial, stream = _index(seed), _index(trial), _index(stream)
    if seed < 0 or trial < 0 or stream < 0:
        raise ValueError("seed, trial and stream must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial, stream)))


def trial_noise(seed, trial, shape):
    """Unit-variance Gaussian noise of one trial: substream 0 of
    :func:`trial_rng`. Every noise variance of a trial scales this one draw."""
    return trial_rng(seed, trial).standard_normal(shape)


def transmit_awgn(xbar, params, seed, trial):
    """Send a +/-1 signal vector through AWGN with variance ``params.sigma2``:
    ``xbar + params.sigma * trial_noise(seed, trial, xbar.shape)``.

    Deterministic given (seed, trial); see :func:`trial_rng`.
    """
    x = np.asarray(xbar, dtype=float)
    if not (np.abs(x) == 1.0).all():
        raise ValueError("transmit_awgn expects a +/-1 signal vector")
    return x + params.sigma * trial_noise(seed, trial, x.shape)


def normalized_llr(ybar, params):
    """Normalized LLRs eta * (2 y / sigma^2); the normalizer collapses to 1.

    With eta = sigma^2 / 2 the result equals the received vector exactly,
    which is the point of the normalization.
    """
    y = np.asarray(ybar, dtype=float)
    scale = 2.0 * params.eta / params.sigma2
    return scale * y


def apply_map(spec, lam):
    """Entry-wise modified LLRs under a MapSpec."""
    return spec.apply(lam)


_erfc = np.vectorize(math.erfc, otypes=[float])


def qfunc(x):
    """Standard normal tail probability Q(x): a float for a scalar, else an
    array of x's shape."""
    out = 0.5 * _erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))
    return float(out) if np.ndim(out) == 0 else out


def ebn0_db(sigma2, rate):
    """Eb/N0 in dB for unit-energy antipodal signaling at a given code rate.

    Noise is parameterized by sigma2 = N0/2 throughout; each channel symbol
    carries ``rate`` information bits, so Eb/N0 = 1 / (2 * rate * sigma2).
    """
    if not 0 < rate <= 1:
        raise ValueError(f"rate must lie in (0, 1], got {rate}")
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    return 10.0 * math.log10(1.0 / (2.0 * rate * sigma2))


def high_noise_prob(params, map_spec=None):
    """Probability that a modified LLR falls below 1/2 when +1 is sent.

    Equals Q(1 / (2 sigma)) for the trivial map and for any threshold map
    with W >= 1/2 (clipping never moves values across the 1/2 boundary then).
    Sign quantization changes the event and is rejected.
    """
    if map_spec is not None:
        if map_spec.kind == "quantize2":
            raise ValueError("high_noise_prob does not apply to the quantize2 map")
        if map_spec.kind == "threshold" and map_spec.param < 0.5:
            raise ValueError("threshold map needs W >= 1/2 for the 1/2 boundary to survive")
    return qfunc(1.0 / (2.0 * params.sigma))
