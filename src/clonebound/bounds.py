"""Closed-form lower bounds on copying errors, as functions of the overlap z.

Everything here is a scalar formula in z = |<phi|psi>|:

* ``re_lower_bound``  F(z) = z - z^2/sqrt(1 + z^2), the floor under the
  relative error of any machine.
* ``ae_lower_bound``  z sqrt(1 - z^4) - z^2 sqrt(1 - z^2), the floor under
  the absolute error; equals F(z) * sqrt(1 - z^4).
* ``hb_bound``        2 (sqrt(1 + z(1 - z)) - 1), the earlier absolute-error
  floor it strengthens.
* ``icasmin_form``    sin(D - d)/sin(D) with cos(D) = z^2, cos(d) = z; an
  algebraically identical rewrite of F used as a cross-check.

``sample_curve`` turns any of them into a :class:`BoundCurve` for CSV/JSON
emission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


def _check_range(z, lo: float = 0.0, hi: float = 1.0):
    z = np.asarray(z, dtype=float)
    if np.any(z < lo) or np.any(z > hi):
        raise ValueError(f"overlap z must be in [{lo}, {hi}]")
    return z


def re_lower_bound(z):
    """Relative-error floor F(z) = z - z^2/sqrt(1 + z^2) on [0, 1].

    F rises strictly on [0, RE_BOUND_ARGMAX] and falls strictly on
    [RE_BOUND_ARGMAX, 1], to 1 - 1/sqrt(2) at z = 1: its derivative
    1 - (2z + z^3)/(1 + z^2)^(3/2) vanishes only where z^4 + z^2 - 1 = 0.
    """
    z = _check_range(z)
    return z - z * z / np.sqrt(1.0 + z * z)


def ae_lower_bound(z):
    """Absolute-error floor z sqrt(1 - z^4) - z^2 sqrt(1 - z^2) on [0, 1]."""
    z = _check_range(z)
    return z * np.sqrt(1.0 - z ** 4) - z * z * np.sqrt(1.0 - z * z)


def hb_bound(z):
    """Earlier absolute-error floor 2(sqrt(1 + z(1 - z)) - 1), symmetric in z <-> 1-z."""
    z = _check_range(z)
    return 2.0 * (np.sqrt(1.0 + z * (1.0 - z)) - 1.0)


def icasmin_form(z):
    """F(z) written as sin(D - d)/sin(D), cos(D) = z^2, cos(d) = z.

    Undefined at z = 1 where sin(D) = 0; use :func:`re_lower_bound` there.
    """
    z = _check_range(z)
    if np.any(z >= 1.0):
        raise ValueError("icasmin_form is 0/0 at z = 1; use re_lower_bound")
    big = np.arccos(z * z)
    small = np.arccos(z)
    return np.sin(big - small) / np.sin(big)


#: z at which F attains its maximum: z^2 solves u^2 + u - 1 = 0.
RE_BOUND_ARGMAX = float(np.sqrt((np.sqrt(5.0) - 1.0) / 2.0))


@dataclass(frozen=True)
class BoundCurve:
    """A named bound sampled on a strictly increasing z grid."""

    name: str
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be 1-D and equally long")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")

    def argmax_z(self) -> float:
        """Grid point with the largest value."""
        return float(self.grid[int(np.argmax(self.values))])

    def to_csv(self) -> str:
        return table_csv(("z", "value"), (self.grid, self.values))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "z": self.grid.tolist(),
            "values": self.values.tolist(),
        }


def sample_curve(name: str, f: Callable, z_min: float, z_max: float,
                 steps: int) -> BoundCurve:
    """Sample ``f`` on a uniform inclusive grid of ``steps`` points."""
    if not (0.0 <= z_min < z_max <= 1.0):
        raise ValueError(f"need 0 <= z_min < z_max <= 1, got [{z_min}, {z_max}]")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    grid = np.linspace(z_min, z_max, steps)
    return BoundCurve(name=name, grid=grid, values=f(grid))


def table_csv(header: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    """CSV text with a header row and 17-significant-digit numeric fields.

    Byte-identical to formatting each field with ``f"{v:.17g}"`` row by row;
    one ``%`` over all fields keeps that loop in C, about twice as fast. The
    whole text is held at once: ``bounds`` calls it on blocks of rows and
    keeps the first block's header line only."""
    if len(header) != len(columns):
        raise ValueError("one header entry per column required")
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValueError("all columns must have equal length")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    fields = tuple(np.column_stack(columns).ravel().tolist())
    return ",".join(header) + "\n" + row * lengths.pop() % fields
