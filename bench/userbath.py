"""The user-defined bath of the ``user-bath`` workload.

An exponential-cutoff Ohmic density J(w) = w exp(-w/wc) / pi, defined
here rather than in the library so that the workload exercises the
generic ``BaseSpectralDensity`` path that any user model takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qbmzeno.spectral import BaseSpectralDensity


@dataclass(frozen=True)
class ExponentialOhmic(BaseSpectralDensity):
    omega_c: float
    name = "ohmic-exponential"
    tail_exponent = 2.0

    def density(self, omega):
        omega = np.asarray(omega, dtype=float)
        return omega * np.exp(-omega / self.omega_c) / np.pi

    def density_over_omega(self, omega):
        omega = np.asarray(omega, dtype=float)
        return np.exp(-omega / self.omega_c) / np.pi
