"""Canonical flat complements for a sub-Riemannian frame.

Given the reference complement T_b, the adapted fields T'_b = T_b +
sum_i A^i_b X_i are chosen so that the projected acceleration
P(nabla_{T'}T') vanishes: per complement index b this is the k-by-k
linear system

    sum_j C_ij^b A^j_b = -gbar(T_b, [X_i, T_b]),   i = 1..k,

solved exactly when the vertical bracket matrix C^b is invertible and in
the minimum-norm least-squares sense otherwise.  Solving is numeric and
batched: one table of structure constants and one stacked SVD cover the
whole sample set, and the reference curvature is read off that table.
When the data is constant over the sample set the solution is promoted
to exact symbolic coefficients.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from .expr import simplify
from .geometry import (
    SubRiemannianStructure,
    VectorField,
    linear_combination,
    structure_constants,
)


class ComplementError(ValueError):
    """No flat complement in the affine family within tolerance."""


CONDITION_WARN = 1e8


def reference_mean_curvature(s, point):
    """Matrix F[..., b, i] = gbar(T_b, [X_i, T_b]) at one point or a batch.

    Row b collects the horizontal-frame components of the projected
    acceleration of the reference field T_b, so the mean curvature of the
    reference complement is sum_b F[b, i] X_i.
    """
    return _mean_curvature(structure_constants(s, point).table, s.k)


def _mean_curvature(table, k):
    """F[..., b, i] read off the structure constants: table[..., i, k+b, k+b]."""
    diag = k + np.arange(table.shape[-1] - k)
    return table[..., :k, diag, diag].swapaxes(-1, -2)


def _norms(r):
    """Euclidean norms of the last axis, each the dot product a lone vector gets."""
    return np.sqrt((r[..., None, :] @ r[..., :, None])[..., 0, 0])


@dataclass
class PointSolve:
    """Solution of the flatness system at one point or a batch.

    A batch of n points puts its axis first on ``A``, ``residuals`` and
    ``condition_numbers``, and ``modes`` holds one list per point;
    ``warnings`` runs over the points in order.
    """

    A: np.ndarray  # (m-k, k)
    modes: list  # per b: "unique" | "least-squares"
    residuals: np.ndarray  # per b, norm of C A + F
    condition_numbers: np.ndarray  # per b
    warnings: list


def solve_canonical_complement(s, point):
    """Solve the flatness system at one point (m,) or a batch (n, m).

    C^b counts as singular when its rank, with singular values above
    1e-10 times the largest, is below k; it then falls back to the
    minimum-norm least-squares solution.  If even that leaves a residual
    above 1e-8 * max(1, |Fbar|) the system is infeasible and a
    ComplementError is raised for the first such point.
    """
    point = np.asarray(point, dtype=float)
    k = s.k
    data = structure_constants(s, point)
    C = np.moveaxis(data.C_vertical, -1, -3)  # C[..., b] is the matrix C^b
    Fbar = _mean_curvature(data.table, k)
    rhs = -Fbar
    U, sv, Vt = np.linalg.svd(C)
    smax = sv[..., :1]
    # singular values below 1e-300 count as zero, so 1/sv stays finite
    rank = np.sum(sv > np.maximum(1e-10 * smax, 1e-300), axis=-1)
    unique = rank == k
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = np.where(unique, smax[..., 0] / sv[..., -1], np.inf)
    inv = np.zeros_like(sv)
    np.divide(1.0, sv, out=inv, where=np.arange(k) < rank[..., None])
    Urhs = (U.swapaxes(-1, -2) @ rhs[..., None])[..., 0]
    A = (Vt.swapaxes(-1, -2) @ (inv * Urhs)[..., None])[..., 0]
    residuals = _norms((C @ A[..., None])[..., 0] - rhs)
    bad = residuals > 1e-8 * np.maximum(1.0, _norms(Fbar))
    if np.any(bad):
        where = tuple(np.argwhere(bad)[0])
        raise ComplementError(
            "no flat complement for T_%d at %s: least-squares residual %.3e"
            % (
                where[-1],
                np.array2string(point[where[:-1]], precision=6),
                residuals[where],
            )
        )
    warnings = [
        "complement %d: condition number %.3e exceeds %.0e"
        % (where[-1], conds[tuple(where)], CONDITION_WARN)
        for where in np.argwhere(unique & (conds > CONDITION_WARN))
    ]
    modes = np.where(unique, "unique", "least-squares").tolist()
    return PointSolve(
        A=A,
        modes=modes,
        residuals=residuals,
        condition_numbers=conds,
        warnings=warnings,
    )


@dataclass
class AdaptedComplement:
    """The canonical complement, symbolic when the solve is constant."""

    structure: SubRiemannianStructure
    mode: str  # "exact-symbolic" | "pointwise"
    solvability: list  # per b
    A_exprs: object  # (m-k, k) nested tuples of Expr, or None
    adapted_fields: object  # tuple of VectorField, or None
    condition_numbers: np.ndarray
    warnings: list

    def coefficients_at(self, point):
        """The tilt matrix A at one point or a batch, from exprs or a fresh solve."""
        if self.mode == "exact-symbolic":
            point = np.asarray(point, dtype=float)
            # (..., m-k, k): no rows when the complement is empty (k = m)
            A = ex.evaluate_array(self.A_exprs, point)
            return A.reshape(point.shape[:-1] + (len(self.A_exprs), self.structure.k))
        return solve_canonical_complement(self.structure, point).A

    def adapted_values(self, point):
        """Coordinate components of the adapted fields, (..., m-k, m)."""
        point = np.asarray(point, dtype=float)
        if self.mode == "exact-symbolic":
            fields = self.adapted_fields
            values = ex.evaluate_array([f.coefficients for f in fields], point)
            # (..., 0, m) when the complement is empty (k = m)
            return values.reshape(point.shape[:-1] + (len(fields), self.structure.dim))
        A = self.coefficients_at(point)
        X = ex.evaluate_array([f.coefficients for f in self.structure.horizontal], point)
        T = ex.evaluate_array([f.coefficients for f in self.structure.complement], point)
        return A @ X + T

    def as_structure(self):
        """The same structure with the adapted complement installed."""
        if self.mode != "exact-symbolic":
            raise ComplementError(
                "adapted fields are only symbolic when the solve is constant; "
                "this complement is pointwise"
            )
        return SubRiemannianStructure(
            dim=self.structure.dim,
            periods=self.structure.periods,
            horizontal=self.structure.horizontal,
            complement=self.adapted_fields,
            name=self.structure.name,
        )


def canonical_complement(s):
    """Solve at ``_default_samples`` and promote constant solutions to symbolic.

    The solve is constant when the spread of A across the samples is at
    most 1e-11 * max(1, |A at the first sample|); it then yields exact
    Const coefficients so the adapted fields are honest vector fields.
    """
    solve = solve_canonical_complement(s, _default_samples(s))
    A0 = solve.A[0]
    spread = float(np.max(np.abs(solve.A - A0), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(A0), initial=0.0)))
    warnings = sorted(set(solve.warnings))
    conds = np.max(solve.condition_numbers, axis=0)
    solvability = solve.modes[0]
    if spread <= 1e-11 * scale:
        A_exprs = tuple(
            tuple(ex.Const(_clean(v)) for v in row) for row in A0
        )
        fields = tuple(
            linear_combination(list(A_exprs[b]), s.horizontal, base=s.complement[b])
            for b in range(s.dim - s.k)
        )
        return AdaptedComplement(
            structure=s,
            mode="exact-symbolic",
            solvability=solvability,
            A_exprs=A_exprs,
            adapted_fields=fields,
            condition_numbers=conds,
            warnings=warnings,
        )
    return AdaptedComplement(
        structure=s,
        mode="pointwise",
        solvability=solvability,
        A_exprs=None,
        adapted_fields=None,
        condition_numbers=conds,
        warnings=warnings,
    )


def _clean(v):
    v = float(v)
    if v == 0.0:
        return 0
    r = round(v)
    if abs(v - r) < 1e-13 * max(1.0, abs(r)):
        return int(r)
    return v


def _default_samples(s):
    """5^m lattice for small m, a seeded 125-point sample otherwise."""
    if 5 ** s.dim <= 5 ** 3:
        return s.sample_lattice(5)
    return s.sample_points(125, seed=7)


def verify_flat_complement(s, ac, points=None):
    """Max over samples of the projected acceleration of the adapted fields.

    Evaluates, in the reference frame, || sum_j A^j_b gbar([X_i,X_j],T_b)
    + gbar([X_i,T_b],T_b) ||_2 per complement index and returns the worst
    value; a flat complement gives 0 up to round-off.
    """
    if points is None:
        points = _default_samples(s)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    data = structure_constants(s, points)
    C = np.moveaxis(data.C_vertical, -1, -3)
    A = ac.coefficients_at(points)
    r = (C @ A[..., None])[..., 0] + _mean_curvature(data.table, s.k)
    return float(np.max(_norms(r), initial=0.0))


# ---------------------------------------------------------------------------


class MetricExtension(SubRiemannianStructure):
    """A structure with its complement rescaled to {X_i, T_b / eps}.

    The rescaled frame is declared orthonormal: the penalty-metric frame.
    epsilon=None keeps the frame {X_i, T_b} and shares the base
    structure's bracket store.  The volume density against coordinate
    Lebesgue measure is 1/|det F| for the frame matrix F, so the rescaled
    volume is eps^(m-k) times the unscaled one.
    """

    def __init__(self, structure, epsilon=None):
        complement = structure.complement
        if epsilon is not None:
            if not 0 < epsilon < float("inf"):  # refuses nan too
                raise ValueError("epsilon must be finite and positive")
            scale = ex.Const(_eps_inverse(epsilon))
            complement = tuple(
                VectorField([simplify(ex.Mul(scale, c)) for c in T.coefficients])
                for T in structure.complement
            )
        super().__init__(
            dim=structure.dim,
            periods=structure.periods,
            horizontal=structure.horizontal,
            complement=complement,
            name=structure.name,
        )
        self.structure = structure
        self.epsilon = epsilon
        if epsilon is None:  # the same frame: share the bracket store
            self._brackets = structure._brackets


def _eps_inverse(epsilon):
    if isinstance(epsilon, int):
        return Fraction(1, epsilon)
    return 1.0 / float(epsilon)
