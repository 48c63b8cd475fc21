"""Exception hierarchy shared by the library and the CLI.

The CLI maps these onto process exit codes, so keep the taxonomy stable:
validation problems are ValueErrors, resource/convergence problems are
RuntimeErrors.
"""

from __future__ import annotations


class BallfixError(Exception):
    """Base class for all library-specific errors."""


class InvalidDimensionError(BallfixError, ValueError):
    """A dimension argument is not a positive integer."""


class InvalidCombinationError(BallfixError, ValueError):
    """Convex-combination weights are nonpositive or do not sum to one."""


class DomainError(BallfixError, ValueError):
    """An argument lies outside the operation's domain (point outside the
    unit ball, nonpositive radius, discontinuity scale outside (0, 2], ...)."""


class HypothesisError(BallfixError, ValueError):
    """The requested displacement bound is at or below the provable optimum,
    so no certificate can exist in general, or above it by a gap that
    double precision cannot resolve: no alpha > 0 closes the certificate
    chain."""


class BudgetExceededError(BallfixError, RuntimeError):
    """A computation would exceed its configured size budget."""

    def __init__(self, message: str, *, limit: int | None = None, required: int | None = None):
        super().__init__(message)
        self.limit = limit
        self.required = required


class NoConvergenceError(BallfixError, RuntimeError):
    """The fixed-point search exhausted its pivot budget; carries the last
    point of its path and the residual there (never a claim that no fixed
    point exists)."""

    def __init__(self, message: str, *, best_point=None, best_residual: float | None = None):
        super().__init__(message)
        self.best_point = best_point
        self.best_residual = best_residual


class CertificateError(BallfixError, RuntimeError):
    """A certificate inequality failed at the fixed point found, typically
    the Jung term: the support there maps to too wide a set at this alpha.
    run_pipeline answers it by halving alpha."""


class SolverError(BallfixError, RuntimeError):
    """A fault of the fixed-point solver, not of the input: a path's basis
    is singular, or the point returned has a residual above fp_tol."""
