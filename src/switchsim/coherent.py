"""Coherent switching detector: effective rates per energy eigenstate.

A detector whose internal coherence outlives the qubit precession cannot
follow the qubit through the probe basis: each energy eigenstate dresses
the detector with its own effective tunneling amplitude and bias, so the
measurement it performs is always in the energy eigenbasis, and only the
pair of switching rates carries the microscopic details.  Two limiting
rate laws are implemented: switching dominated by one coupling amplitude,
and switching suppressed by a large bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .measurement import two_rate_overall_fidelity


@dataclass(frozen=True)
class CoherentDetectorParams:
    """Couplings/biases per probe state, probe angle, and the rate scale.

    gamma1_cap bounds the divergence of the large-bias law near beta = 0;
    the true saturation value is device physics, so the cap is explicit
    configuration rather than a prediction.
    """

    g_L: float
    g_R: float
    eps_L: float
    eps_R: float
    beta: float
    rate_scale: float
    gamma1_cap: float = 0.0  # 0 selects the default 100 * rate_scale

    def __post_init__(self):
        if not 0.0 <= self.beta <= math.pi:
            raise ValueError(f"beta must lie in [0, pi], got {self.beta}")
        if not (math.isfinite(self.rate_scale) and self.rate_scale > 0.0):
            raise ValueError(f"rate_scale must be finite and positive, got {self.rate_scale}")
        if self.gamma1_cap == 0.0:
            object.__setattr__(self, "gamma1_cap", 100.0 * self.rate_scale)
        if not (math.isfinite(self.gamma1_cap) and self.gamma1_cap > 0.0):
            raise ValueError(f"gamma1_cap must be finite and positive, got {self.gamma1_cap}")


class EffectiveRates(NamedTuple):
    """Switching rates for the qubit ground and excited energy eigenstates."""

    gamma_0: float
    gamma_1: float


class EffectiveCouplings(NamedTuple):
    g_0: float
    g_1: float
    eps_0: float
    eps_1: float


def effective_couplings(p: CoherentDetectorParams) -> EffectiveCouplings:
    """Probe couplings and biases averaged into the energy eigenbasis with
    weights cos^2(beta/2) / sin^2(beta/2)."""
    c2 = math.cos(0.5 * p.beta) ** 2
    s2 = math.sin(0.5 * p.beta) ** 2
    return EffectiveCouplings(
        g_0=p.g_L * c2 + p.g_R * s2,
        g_1=p.g_L * s2 + p.g_R * c2,
        eps_0=p.eps_L * c2 + p.eps_R * s2,
        eps_1=p.eps_L * s2 + p.eps_R * c2,
    )


def rates_dominant_coupling(p: CoherentDetectorParams) -> EffectiveRates:
    """Rates when one probe coupling dominates (|g_R| >> |g_L|):
    rates go as the squared effective couplings, sin^4 / cos^4 of beta/2."""
    s2 = math.sin(0.5 * p.beta) ** 2
    c2 = math.cos(0.5 * p.beta) ** 2
    return EffectiveRates(
        gamma_0=min(p.rate_scale * s2 * s2, p.gamma1_cap),
        gamma_1=min(p.rate_scale * c2 * c2, p.gamma1_cap),
    )


def rates_large_bias(p: CoherentDetectorParams) -> EffectiveRates:
    """Rates in the large-bias limit with equal couplings: (coupling)^2/|bias|
    averaging gives sec^2 / csc^2 of beta/2, capped where the csc form
    diverges near beta = 0."""
    half = 0.5 * p.beta
    c2 = math.cos(half) ** 2
    s2 = math.sin(half) ** 2
    gamma_0 = p.rate_scale / c2 if c2 > 0.0 else math.inf
    gamma_1 = p.rate_scale / s2 if s2 > 0.0 else math.inf
    return EffectiveRates(
        gamma_0=min(gamma_0, p.gamma1_cap),
        gamma_1=min(gamma_1, p.gamma1_cap),
    )


def coherent_fidelity(r: EffectiveRates) -> float:
    """Overall readout fidelity of the coherent detector.

    The measurement basis is pinned to the energy eigenbasis, so the
    aligned-probe two-rate fidelity applies directly with (gamma_0,
    gamma_1).  Equal rates give zero (the record carries no information).
    """
    return two_rate_overall_fidelity(r.gamma_0, r.gamma_1)
