"""Uniformly sampled functions of one variable with CSV persistence."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import _csv
from .errors import NonUniformGrid


@dataclass
class GridFunction:
    """Sampled function: strictly increasing abscissae and matching values."""

    xs: np.ndarray
    ys: np.ndarray
    meta: str = ""

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.ndim != 1 or self.xs.shape != self.ys.shape:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        if len(self.xs) < 2:
            raise ValueError("need at least two sample points")
        if not np.all(np.diff(self.xs) > 0):
            raise ValueError("xs must be strictly increasing")

    def __len__(self):
        return len(self.xs)

    @property
    def spacing(self) -> float:
        """Grid step; raises NonUniformGrid when the grid is not uniform."""
        d = np.diff(self.xs)
        h = float(d[0])
        if not np.allclose(d, h, rtol=1e-10, atol=0.0):
            raise NonUniformGrid("operation requires a uniform grid")
        return h

    def require_uniform_from_zero(self) -> float:
        if abs(self.xs[0]) > 1e-14 * max(1.0, abs(self.xs[-1])):
            raise NonUniformGrid("grid must start at 0")
        return self.spacing

    def to_csv(self, path_or_buf) -> None:
        """Two-column CSV with a '#' header line carrying the metadata and
        every value to 17 significant digits, as "%.17g" prints it."""
        with _csv.opened(path_or_buf, "w") as fh:
            fh.write(f"# {self.meta}\n")
            _csv.write_rows(fh, np.column_stack([self.xs, self.ys]))

    @classmethod
    def from_csv(cls, path_or_buf) -> "GridFunction":
        """Read what to_csv writes: the two value columns through
        np.loadtxt (the bits float() gives) and the metadata of the last
        '#' line."""
        with _csv.opened(path_or_buf) as fh:
            lines = [line.strip() for line in fh]
        meta = [line[1:].strip() for line in lines if line.startswith("#")]
        xs, ys = np.loadtxt(lines, delimiter=",", comments="#", ndmin=2).T
        return cls(xs.copy(), ys.copy(), meta[-1] if meta else "")

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()
