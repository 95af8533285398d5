"""Analytic droplet-ejection geometry.

A liquid jet rises from a nozzle at the bottom of the unit domain along the
vertical axis.  Before breakup the liquid is a column of radius

    R(y, t) = R0 * (1 + A(t) * cos(2*pi*(y - v*t)/lambda))

whose perturbation amplitude ``A`` grows linearly to 1 at ``breakup_time``
(the linear-growth phase of a Rayleigh-Plateau instability).  At breakup the
column beyond the pinch point is replaced by a train of droplets riding at
the jet speed, one per perturbation wavelength, sized to conserve the
column's volume per wavelength.

All queries are *functions of (point, t)* — the geometry is prescribed, not
simulated, which keeps the workload deterministic across octree
implementations while still moving the refinement region every step exactly
like the real simulation does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.config import SolverConfig


@dataclass(frozen=True)
class Droplet:
    """One free droplet: center height and radius."""

    y: float
    radius: float


class DropletGeometry:
    """Time-dependent two-phase geometry of the ejection process."""

    def __init__(self, config: SolverConfig):
        self.config = config
        self._droplet_cache: Dict[float, List[Droplet]] = {}

    # -- kinematics -----------------------------------------------------------

    def tip(self, t: float) -> float:
        """Height of the jet front (capped inside the domain).

        The jet starts with a small protrusion so the interface exists (and
        the AMR has something to track) from the very first step.
        """
        return min(0.95, self.config.initial_tip + self.config.jet_speed * t)

    def amplitude(self, t: float) -> float:
        """Perturbation amplitude, growing linearly until breakup."""
        if self.config.breakup_time <= 0:
            return self.config.perturbation_amplitude
        return min(1.0, max(0.0, t / self.config.breakup_time))\
            * self.config.perturbation_amplitude

    def has_broken(self, t: float) -> bool:
        return t >= self.config.breakup_time

    def pinch_height(self, t: float) -> float:
        """Below this height the liquid is still an attached column."""
        if t >= self.config.shutoff_time:
            # nozzle off: the residual column retracts at the jet speed
            residual = 0.35 - (t - self.config.shutoff_time) * self.config.jet_speed
            return max(0.0, min(residual, self.tip(t)))
        if not self.has_broken(t):
            return self.tip(t)
        # the column keeps feeding from the nozzle after breakup
        return min(0.35, self.tip(t))

    def droplets(self, t: float) -> List[Droplet]:
        """Free droplets after breakup, one per wavelength above the pinch."""
        if not self.has_broken(t):
            return []
        cached = self._droplet_cache.get(t)
        if cached is not None:
            return cached
        cfg = self.config
        lam = cfg.perturbation_wavelength
        out: List[Droplet] = []
        if cfg.dim == 2:
            r_d = math.sqrt(2.0 * cfg.nozzle_radius * lam / math.pi)
        else:
            r_d = (3.0 * cfg.nozzle_radius ** 2 * lam / 4.0) ** (1.0 / 3.0)
        r_d = min(r_d, 0.45 * lam)  # droplets must not merge back
        # crests sit where the perturbation phase is 0 mod 2*pi; only crests
        # emitted while the nozzle was feeding become droplets
        max_k = (
            cfg.jet_speed * cfg.shutoff_time / lam
            if math.isfinite(cfg.shutoff_time)
            else float("inf")
        )
        k = 0
        while True:
            y = cfg.jet_speed * t - k * lam
            if k > max_k:
                break
            k += 1
            if y < self.pinch_height(t) + r_d:
                break
            if y <= 0.95 - r_d:
                out.append(Droplet(y=y, radius=r_d))
            if k > 64:  # safety
                break
        if len(self._droplet_cache) > 64:
            self._droplet_cache.clear()
        self._droplet_cache[t] = out
        return out

    # -- indicator functions --------------------------------------------------

    def axis_distance(self, point: Sequence[float]) -> float:
        """Distance from the jet axis (x=0.5 line / x=z=0.5 in 3-D)."""
        if self.config.dim == 2:
            return abs(point[0] - 0.5)
        return math.hypot(point[0] - 0.5, point[1] - 0.5)

    def liquid_mask(self, pts: np.ndarray, t: float) -> np.ndarray:
        """Vectorised phase indicator over an ``(N, dim)`` point array."""
        cfg = self.config
        pts = np.asarray(pts, dtype=np.float64)
        y = pts[:, -1]
        if cfg.dim == 2:
            r = np.abs(pts[:, 0] - 0.5)
        else:
            r = np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5)
        a = self.amplitude(t)
        phase = 2.0 * np.pi * (y - cfg.jet_speed * t) / cfg.perturbation_wavelength
        col_r = cfg.nozzle_radius * (1.0 + a * np.cos(phase)) / (1.0 + a)
        mask = (y >= 0.0) & (y <= self.pinch_height(t)) & (r <= col_r)
        for d in self.droplets(t):
            mask |= (y - d.y) ** 2 + r ** 2 <= d.radius ** 2
        return mask

    def is_liquid(self, point: Sequence[float], t: float) -> bool:
        """Sharp phase indicator (scalar convenience over liquid_mask)."""
        return bool(self.liquid_mask(np.asarray([point]), t)[0])

    _unit_grids: Dict[Tuple[int, int], np.ndarray] = {}

    def _sample_grid(self, lo: Sequence[float], hi: Sequence[float],
                     samples: int) -> np.ndarray:
        dim = self.config.dim
        key = (dim, samples)
        unit = DropletGeometry._unit_grids.get(key)
        if unit is None:
            centers = (np.arange(samples) + 0.5) / samples
            grids = np.meshgrid(*([centers] * dim), indexing="ij")
            unit = np.stack([g.ravel() for g in grids], axis=1)
            DropletGeometry._unit_grids[key] = unit
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        return lo + unit * (hi - lo)

    def vof_of_cell(self, lo: Sequence[float], hi: Sequence[float],
                    t: float, samples: int = 3) -> float:
        """Volume fraction of liquid in a cell, by sub-sampling."""
        pts = self._sample_grid(lo, hi, samples)
        return float(self.liquid_mask(pts, t).mean())

    def vof_of_cells(self, los: np.ndarray, his: np.ndarray, t: float,
                     samples: int = 3) -> np.ndarray:
        """Volume fractions of many cells at once.

        Bit-identical to per-cell :meth:`vof_of_cell`: the same cached unit
        grid, the same per-sample arithmetic applied elementwise, and a
        per-cell mean whose 0/1 addends sum exactly in any order."""
        dim = self.config.dim
        unit = DropletGeometry._unit_grids.get((dim, samples))
        if unit is None:
            self._sample_grid([0.0] * dim, [1.0] * dim, samples)
            unit = DropletGeometry._unit_grids[(dim, samples)]
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        pts = los[:, None, :] + unit[None, :, :] * (his - los)[:, None, :]
        mask = self.liquid_mask(pts.reshape(-1, dim), t)
        return mask.reshape(len(los), -1).mean(axis=1)

    def vertical_velocities(self, centers: np.ndarray, t: float) -> np.ndarray:
        """Vertical velocity at many points — ``velocity(p, t)[-1]``
        elementwise (one shared phase-mask evaluation)."""
        cfg = self.config
        mask = self.liquid_mask(np.asarray(centers, dtype=np.float64), t)
        return np.where(mask, cfg.jet_speed, 0.15 * cfg.jet_speed)

    def velocity(self, point: Sequence[float], t: float) -> Tuple[float, ...]:
        """Prescribed velocity: the liquid rides upward at jet speed, the
        ambient gas co-flows weakly."""
        v = self.config.jet_speed if self.is_liquid(point, t)\
            else 0.15 * self.config.jet_speed
        if self.config.dim == 2:
            return (0.0, v)
        return (0.0, 0.0, v)

    def near_interface(self, lo: Sequence[float], hi: Sequence[float],
                       t: float, samples: int = 3) -> bool:
        """Does the interface cross the (band-padded) cell?

        A *mixed* sampled fraction means the cell straddles the interface.
        The liquid features (jet width ~2*R0, droplet diameter ~lambda) are
        wider than a coarse cell's sample spacing, so sub-sampling cannot
        skip over them the way corner tests would.
        """
        band = self.config.interface_band
        pad = band * max(h - loc for h, loc in zip(hi, lo))
        padded_lo = [loc - pad for loc in lo]
        padded_hi = [h + pad for h in hi]
        frac = self.vof_of_cell(padded_lo, padded_hi, t, samples=samples)
        return 0.0 < frac < 1.0

    def near_interface_cells(self, los: np.ndarray, his: np.ndarray,
                             t: float, samples: int = 3) -> np.ndarray:
        """:meth:`near_interface` of many cells at once (the same pad and
        :meth:`vof_of_cells`, so every answer equals the per-cell one)."""
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        pad = (self.config.interface_band * (his - los).max(axis=1))[:, None]
        frac = self.vof_of_cells(los - pad, his + pad, t, samples=samples)
        return (0.0 < frac) & (frac < 1.0)
