"""Dual active-set solver for small strictly convex QPs, plus an LP
feasibility check used by the control-sharing test.

Problem shape:  minimize 0.5 z'(H + reg*I)z + c'z  subject to  A z >= b.

The method is that of Goldfarb and Idnani ("A numerically stable dual method
for solving strictly convex quadratic programs", Math. Programming 27, 1983).
It starts from the unconstrained minimizer, which is optimal for the dual
with every multiplier zero, and adds violated rows one at a time while every
multiplier stays nonnegative, so it needs no feasible starting point. A
violated row that is a nonpositive combination of the active rows proves the
rows inconsistent.

With H + reg*I = LL' it works in y = L'z, where the cost is a shifted
|y|^2 / 2, and projects through a QR factorization of the active normals.
That stays accurate when two rows are nearly parallel in the cost metric,
where the normal equations of the active normals lose their rank.
Problems here are tiny (a handful of variables, a handful of rows), so the
active set is identified exactly (needed for the closed-form cross-checks)
and the work per call is mostly fixed cost, which the solver keeps small:

* a QPSpec factors its cost when built (the symmetry check, then a Cholesky
  factor and its triangular inverse, both written out on Python floats);
  `QPSpec.with_rows` gives a spec with new rows that shares that factor, so
  a controller whose cost does not depend on the state factors it once;
* `QPSolution.kkt_residual` is computed from the spec when first read;
* solve_qp runs on Python floats, with no BLAS or LAPACK call: every dot
  and matrix product is an explicit sum from +0.0, added left to right
  (core.dot_of, matvec_of, affine_of), so its bits do not depend on the
  CPU's BLAS kernel, and a call costs no numpy dispatch per product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

import numpy as np

from .core import affine_of, dot_of, matvec_of
from .errors import IndefiniteQPError, QPIterationError

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"

# a row counts as violated when its slack is below -_FEAS_TOL times its scale
_FEAS_TOL = 1e-13
# slacks of subnormal size are rounding whatever the scale of the problem;
# measured in the row's own units, before the row is scaled
_TINY = float(np.finfo(float).tiny)
# a row whose normal is within this sine of the active span adds no primal
# step (the computed sine carries a rounding error of a few 1e-16)
_DEP_TOL = 1e-14


def _factor(Hr):
    """(rows of L^-1, rows of L^-T) for Hr = LL', Hr given as d rows of
    floats and read below its diagonal, as LAPACK's lower Cholesky does.
    Like LAPACK it fails when a pivot is not > 0 (NaN included)."""
    d = len(Hr)
    L = [[0.0] * d for _ in range(d)]
    for j in range(d):
        Lj = L[j]
        pivot = Hr[j][j] - dot_of(j)(Lj, Lj)
        if not pivot > 0.0:
            raise IndefiniteQPError("H + reg*I must be positive definite")
        Lj[j] = math.sqrt(pivot)
        for i in range(j + 1, d):
            L[i][j] = (Hr[i][j] - dot_of(j)(L[i], Lj)) / Lj[j]
    # column j of L^-1: 1/L_jj on the diagonal, then forward substitution
    inv = [[0.0] * d for _ in range(d)]
    for j in range(d):
        inv[j][j] = 1.0 / L[j][j]
        for i in range(j + 1, d):
            acc = 0.0
            for t in range(j, i):
                acc += L[i][t] * inv[t][j]
            inv[i][j] = -acc / L[i][i]
    return inv, [list(col) for col in zip(*inv)]


@dataclass
class QPSpec:
    """Cost (H, c) with Tikhonov parameter reg and inequality rows A z >= b."""

    H: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    reg: float = 1e-9

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        d = self.c.size
        self.H = np.asarray(self.H, dtype=float).reshape(d, d)
        self._set_rows(self.A, self.b)
        scale = 1.0 + np.abs(self.H).max(initial=0.0)
        if np.abs(self.H - self.H.T).max(initial=0.0) > 1e-9 * scale:
            raise ValueError("H must be symmetric")
        # H + reg*I is positive definite exactly when its Cholesky factor
        # LL' exists; solve_qp works with L^-1
        self._Hr = self.H + self.reg * np.eye(d)
        self._factor = _factor(self._Hr.tolist())

    def _set_rows(self, A, b):
        self.A = np.asarray(A, dtype=float).reshape(-1, self.c.size)
        self.b = np.asarray(b, dtype=float).ravel()
        if self.A.shape[0] != self.b.size:
            raise ValueError("row count of A and length of b disagree")

    def with_rows(self, A, b) -> "QPSpec":
        """The same cost with the rows A z >= b, sharing this spec's factor:
        it solves exactly as QPSpec(H, c, A, b, reg) would."""
        spec = object.__new__(QPSpec)
        spec.__dict__.update(self.__dict__)
        spec._set_rows(A, b)
        return spec

    @property
    def dim(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.b.size

    def objective(self, z) -> float:
        z = np.asarray(z, dtype=float).ravel()
        return float(0.5 * z @ self._Hr @ z + self.c @ z)


@dataclass
class QPSolution:
    """Outcome of solve_qp (z_star and multipliers None when infeasible).
    kkt_residual is computed from spec when first read, so the spec's
    arrays must not change before then."""

    z_star: Optional[np.ndarray]
    multipliers: Optional[np.ndarray]
    active_set: List[int]
    status: str
    iterations: int = 0
    spec: Optional[QPSpec] = field(default=None, repr=False, compare=False)

    @property
    def optimal(self) -> bool:
        return self.status == STATUS_OPTIMAL

    @cached_property
    def kkt_residual(self) -> float:
        """Largest scaled KKT residual; inf when infeasible."""
        if self.z_star is None:
            return math.inf
        s = self.spec
        return _kkt_residual(s._Hr, s.c, s.A, s.b, self.z_star, self.multipliers)


def _kkt_residual(H, c, A, b, z, lam) -> float:
    """Max of the four (scaled) KKT residuals: stationarity, primal, dual,
    complementarity."""
    Hz = H @ z
    r_stat = np.abs(Hz + c - lam @ A).max() / (1.0 + np.abs(Hz).max() + np.abs(c).max())
    if not b.size:
        return float(r_stat)
    slack = A @ z - b
    lam_max = np.abs(lam).max()
    r_pri = -slack.min() / (1.0 + np.abs(b).max())
    r_dual = -lam.min() / (1.0 + lam_max)
    r_comp = np.abs(lam * slack).max() / (1.0 + lam_max * (1.0 + np.abs(slack).max()))
    return float(max(r_stat, r_pri, r_dual, r_comp, 0.0))


def _split(Q, q, n):
    """Coordinates of n in the orthonormal columns Q[:q] and the part of n
    orthogonal to them, by two Gram-Schmidt passes (the second restores the
    orthogonality that cancellation loses when n nearly lies in their span);
    the part is n_i + (0.0 + Q[0][i]*(-d_0) + ... + Q[q-1][i]*(-d_{q-1})).
    For q = 0 that is n itself: n_i + 0.0 = n_i, as no entry of a normal, a
    sum from +0.0, is -0.0."""
    if not q:
        return [], n
    coords, part = matvec_of(q, len(n)), affine_of(len(n), q)
    d1 = coords(Q, n)
    s = part(n, Q, [-v for v in d1])
    e = coords(Q, s)
    return [a + b for a, b in zip(d1, e)], part(s, Q, [-v for v in e])


def _append(Q, R_inv, q, r, s, ss):
    """Grow the thin QR of the active normals by a column with split (d1, s),
    given r = R^-1 d1 and ss = s's: R gains the column (d1, |s|), so its
    inverse gains (-r, 1) / |s|."""
    rho = math.sqrt(ss)
    Q[q] = [v / rho for v in s]
    for j, r_j in enumerate(r):
        R_inv[j][q] = r_j / -rho
    R_inv[q][q] = 1.0 / rho


def _max_abs(values) -> float:
    """float(np.abs(values).max()) on floats: NaN when any value is NaN."""
    top = 0.0
    for v in values:
        a = abs(v)
        if not a <= top:   # larger, or NaN
            if a != a:
                return a
            top = a
    return top


def _row_scale(row) -> float:
    """The power of two 2^-e with |row|_max = f * 2^e, 0.5 <= f < 1, which
    scales the row exactly (1 when |row|_max is 0, inf or NaN); inf when
    |row|_max < 2^-1024, where 2^-e overflows, as numpy's ldexp gives."""
    e = math.frexp(_max_abs(row))[1]
    return math.ldexp(1.0, -e) if e > -1024 else math.inf


def solve_qp(spec: QPSpec, max_iter: Optional[int] = None) -> QPSolution:
    """KKT-certified minimizer of the given problem, or status 'infeasible'
    when a violated row is a nonpositive combination of the active rows
    (a Farkas certificate from the dual).

    Each iteration either certifies the current point optimal, takes a step
    toward the chosen violated row p (adding p once it holds) or drops the
    active row whose multiplier reached zero first."""
    d = spec.dim
    A, b = spec.A.tolist(), spec.b.tolist()
    k = len(b)
    if max_iter is None:
        max_iter = 60 * (k + 2)
    dot, lmul = dot_of(d), matvec_of(d, d)
    L_inv, L_inv_T = spec._factor

    # rows scaled by powers of two, which is exact, so that their squared
    # norms below neither underflow nor overflow
    w = [_row_scale(row) for row in A]
    # y = L'z with H + reg*I = LL': the cost becomes 0.5|y|^2 + (L^-1 c)'y
    # and row i reads N[i]'y >= bw_i with N[i] = L^-1 A_i' w_i
    N = [lmul(L_inv, [v * w_i for v in row]) for row, w_i in zip(A, w)]
    bw = [b_i * w_i for b_i, w_i in zip(b, w)]
    y = [-v for v in lmul(L_inv, spec.c.tolist())]
    nrm = [math.sqrt(dot(n, n)) for n in N]
    # a slack's rounding grows with the largest point met, not the current one
    y_max = _max_abs(y)
    tol_b = [_FEAS_TOL * abs(v) + _TINY * w_i for v, w_i in zip(bw, w)]
    tol_n = [_FEAS_TOL * v for v in nrm]
    active: List[int] = []
    u: List[float] = []          # multipliers of the active rows, then p's
    Q = [None] * d               # columns; active normals = Q[:q] R[:q, :q]
    R_inv = [[0.0] * d for _ in range(d)]   # rows, upper triangular
    p = -1
    for it in range(1, max_iter + 1):
        if p < 0:
            # the most violated row relative to its norm, the first one on
            # ties; a NaN slack or tolerance violates nothing. An active row
            # is never violated: its slack is the rounding left by the step
            # that made it hold and by later steps along s, orthogonal to it
            # to working precision, a few ulps of nrm[i] * y_max, far under
            # the threshold of about 450 ulps
            worst = math.inf
            for i in range(k):
                s_i = dot(y, N[i]) - bw[i]
                if s_i < -(tol_b[i] + tol_n[i] * y_max):
                    ratio = s_i / max(nrm[i], 1e-300)
                    if ratio < worst:
                        worst, p = ratio, i
            if p < 0:
                z = lmul(L_inv_T, y)
                lam = [0.0] * k
                # a multiplier that reaches zero on the step adding a row
                # (t1 == t2) can round to -1e-16; clamped as np.maximum(u, 0.0)
                # would, since u starts at +0.0 and is never -0.0
                for i, u_i in zip(active, u):
                    lam[i] = max(u_i, 0.0) * w[i]
                # the largest |b_i| that is not NaN (a NaN fails a > top)
                top = 0.0
                for b_i in b:
                    if abs(b_i) > top:
                        top = abs(b_i)
                tol = 1e-10 * (1.0 + top)
                kept = [i for i in sorted(active)
                        if lam[i] > 0.0 or abs(dot(A[i], z) - b[i]) <= tol]
                return QPSolution(np.array(z), np.array(lam), kept, STATUS_OPTIMAL, it, spec)
            u.append(0.0)
        q = len(active)
        n_p = N[p]
        d1, s = _split(Q, q, n_p)
        r = matvec_of(q, q)(R_inv, d1)
        # dual step: the first active multiplier to reach zero
        t1, drop = math.inf, -1
        for j, r_j in enumerate(r):
            if r_j > 0.0 and u[j] / r_j < t1:
                t1, drop = u[j] / r_j, j
        # primal step: the one making row p hold with equality; none when p's
        # normal lies in the span of the active normals (a full active set)
        ss = dot(s, s)
        t2 = math.inf
        dep = _DEP_TOL * nrm[p]
        if q < d and ss > dep * dep:
            t2 = (bw[p] - dot(n_p, y)) / ss
        if t1 == math.inf and t2 == math.inf:
            return QPSolution(None, None, [], STATUS_INFEASIBLE, it, spec)
        t = min(t1, t2)
        for j, r_j in enumerate(r):
            u[j] -= t * r_j
        u[q] += t
        if t2 < math.inf:
            y = [y_i + t * s_i for y_i, s_i in zip(y, s)]
            y_max = max(y_max, _max_abs(y))
        if t2 <= t1:
            _append(Q, R_inv, q, r, s, ss)
            active.append(p)
            p = -1
        else:
            del active[drop], u[drop]
            for j, i in enumerate(active):
                d1, s = _split(Q, j, N[i])
                _append(Q, R_inv, j, matvec_of(j, j)(R_inv, d1), s, dot(s, s))
    raise QPIterationError(f"dual active set did not converge in {max_iter} iterations")


def _phase_one(A, b) -> bool:
    """Feasibility of A z >= b by one dual solve of min 0.5|z|^2 s.t.
    A z >= b: a strictly convex QP is feasible exactly when its rows are.
    (The name is the one the benchmark's tracer counts calls under.)"""
    d = A.shape[1]
    return solve_qp(QPSpec(np.eye(d), np.zeros(d), A, b, reg=0.0)).optimal


def lp_feasible(A, b):
    """True iff some z satisfies A z >= b; for a stack of N systems, A
    (N, k, d) and b (N, k), a boolean array (N,). One system, A (k, d) and
    b (k,), is the stack of one. For d = 1 all systems are decided at once
    by exact interval intersection (a row with a_i = 0 or NaN and b_i > 0
    has no solution), for d > 1 each by the dual method on the minimum-norm
    problem."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    one = A.ndim < 3
    if one:
        # with no rows d cannot be inferred, and every z will do: take d = 1
        A, b = A.reshape(1, b.size, -1 if b.size else 1), b.reshape(1, -1)
    if A.shape[2] == 1:
        a = A[:, :, 0]
        pos, neg = a > 0.0, a < 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = b / a
        # fmax/fmin skip a NaN bound (inf / inf, or a NaN in a or b)
        lo = np.fmax.reduce(np.where(pos, ratio, -math.inf), axis=1, initial=-math.inf)
        hi = np.fmin.reduce(np.where(neg, ratio, math.inf), axis=1, initial=math.inf)
        feasible = ~(~pos & ~neg & (b > 0.0)).any(axis=1) & (lo <= hi)
    else:
        feasible = np.array([_phase_one(A_i, b_i) for A_i, b_i in zip(A, b)], dtype=bool)
    return bool(feasible[0]) if one else feasible
