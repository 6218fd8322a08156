"""Lock-step DOP853: many independent initial value problems as arrays.

Each column is its own problem y' = fun(u, y) from u0 toward its bound,
with its own u, step size, direction and accept/reject state under
scipy's DOP853 control: the tableau, the initial step (Hairer, Norsett &
Wanner, Solving ODEs I, sec. II.4), the error norm, safety 0.9, factors
0.2/10, exponent -1/8 and min_step (sec. II.5).  Every pass takes one
trial step for all live columns.  The stepper knows no events: after
each pass the caller reads the accepted moves, applies its own event
rule and keeps only the columns it has not decided.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import DOP853

A, B, C, E3, E5 = DOP853.A, DOP853.B, DOP853.C, DOP853.E3, DOP853.E5
N_STAGES = DOP853.n_stages
EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
A_ROWS = [A[s, :s] for s in range(1, N_STAGES)]


def _rms(x: np.ndarray) -> np.ndarray:
    """scipy's RMS norm of each column."""
    return np.sqrt(np.sum(x * x, axis=0) / len(x))


class LockStep:
    """Columns y' = fun(u, y, ids) integrated together, one step a pass.

    u0 and bound hold one value per column and y0 one row per component
    (shape (m, n)).  fun receives the live columns' u, y and `ids`, their
    indices among the starting columns, and returns dy of y's shape.
    After `step()`, u, y and f hold every live column's state (moved
    where the step was accepted) and y_old the state before the pass.
    Non-finite trial values only reject the step, as in scipy.
    """

    def __init__(self, fun, u0, y0, bound, rtol: float, atol: float):
        self.fun, self.rtol, self.atol = fun, rtol, atol
        self.u = np.array(u0, dtype=float)
        self.ids = np.arange(len(self.u))
        self.y = np.array(y0, dtype=float).reshape(-1, len(self.u))
        self.y_old = self.y
        self.bound = np.array(bound, dtype=float)
        self.direction = np.sign(self.bound - self.u)
        with np.errstate(all="ignore"):
            self.f = fun(self.u, self.y, self.ids)
            self.h_abs = np.maximum(self._initial_step(), self._min_step())
        self.min_step = self._min_step()
        self.rejected = np.zeros(len(self.u), dtype=bool)

    def _min_step(self) -> np.ndarray:
        return 10.0 * np.abs(np.nextafter(self.u, self.direction * np.inf)
                             - self.u)

    def _initial_step(self) -> np.ndarray:
        """scipy's select_initial_step, column by column."""
        u, y, f, d = self.u, self.y, self.f, self.direction
        span = np.abs(self.bound - u)
        scale = self.atol + np.abs(y) * self.rtol
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
        f1 = self.fun(u + h0 * d, y + h0 * d * f, self.ids)
        d2 = _rms((f1 - f) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (-EXPONENT))
        return np.minimum(np.minimum(100.0 * h0, h1), span)

    def step(self) -> tuple[np.ndarray, np.ndarray]:
        """One trial step for every live column.

        Returns (accept, stalled): the columns that moved, and the rejected
        columns whose next step would fall below min_step, where scipy
        stops with status -1.
        """
        u, y, d = self.u, self.y, self.direction
        with np.errstate(all="ignore"):
            u_new = u + d * self.h_abs
            u_new = np.where(d * (u_new - self.bound) > 0.0, self.bound, u_new)
            h = u_new - u
            # stage s is row s of K; each row holds y's shape flattened
            K = np.empty((N_STAGES + 1, y.size))
            K[0] = self.f.ravel()
            u_stage = u + C[1:N_STAGES, None] * h
            for s, a_s in enumerate(A_ROWS, start=1):
                dy = (a_s @ K[:s]).reshape(y.shape)
                K[s] = self.fun(u_stage[s - 1], y + dy * h, self.ids).ravel()
            y_new = y + h * (B @ K[:N_STAGES]).reshape(y.shape)
            f_new = self.fun(u_new, y_new, self.ids)
            K[N_STAGES] = f_new.ravel()
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            e5 = np.sum(((E5 @ K).reshape(y.shape) / scale) ** 2, axis=0)
            e3 = np.sum(((E3 @ K).reshape(y.shape) / scale) ** 2, axis=0)
            err = np.where((e5 == 0.0) & (e3 == 0.0), 0.0, np.abs(h) * e5
                           / np.sqrt((e5 + 0.01 * e3) * len(y)))
            accept = err < 1.0
            grow = np.where(err == 0.0, 10.0,
                            np.minimum(10.0, 0.9 * err ** EXPONENT))
            grow = np.where(self.rejected, np.minimum(1.0, grow), grow)
            # fmax: a NaN error norm shrinks by the minimum factor, as
            # Python's max(0.2, nan) does in scipy
            shrink = np.fmax(0.2, 0.9 * err ** EXPONENT)
            h_abs = np.abs(h) * np.where(accept, grow, shrink)
        self.rejected = ~accept
        self.y_old = y
        self.u = np.where(accept, u_new, u)
        self.y = np.where(accept, y_new, y)
        self.f = np.where(accept, f_new, self.f)
        # a new step starts from at least min_step at its u
        self.min_step = np.where(accept, self._min_step(), self.min_step)
        stalled = self.rejected & (h_abs < self.min_step)
        self.h_abs = np.where(accept, np.maximum(h_abs, self.min_step), h_abs)
        return accept, stalled

    def keep(self, mask: np.ndarray) -> None:
        """Drop every live column where mask is False."""
        for name in ("ids", "u", "bound", "direction", "h_abs", "min_step",
                     "rejected"):
            setattr(self, name, getattr(self, name)[mask])
        for name in ("y", "y_old", "f"):
            setattr(self, name, getattr(self, name)[:, mask])
