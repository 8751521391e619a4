"""Small strictly convex QPs, plus an LP feasibility check used by the
control-sharing test.

Problem shape:  minimize 0.5 z'(H + reg*I)z + c'z  subject to  A z >= b.

With one variable (d = 1) the solution is -c/(H + reg) projected onto the
interval of the rows (_project). For d >= 2 the method is the dual one of
Goldfarb and Idnani ("A numerically stable dual method for solving strictly
convex quadratic programs", Math. Programming 27, 1983). It starts from the
unconstrained minimizer, which is optimal for the dual with every
multiplier zero, and adds violated rows one at a time while every
multiplier stays nonnegative, so it needs no feasible starting point. A
violated row that is a nonpositive combination of the active rows proves the
rows inconsistent.

With H + reg*I = LL' it works in y = L'z, where the cost is a shifted
|y|^2 / 2, and projects through a QR factorization of the active normals,
which stays accurate when two rows are nearly parallel in the cost metric.
Problems here are tiny, so the active set is identified exactly (as the
closed-form cross-checks need) and a call is mostly fixed cost, kept small
on Python floats from the filters' rows to the returned point: a QPSpec and
a QPSolution hold floats only, a spec's cost is factored once and shared by
`with_rows`, and the factor, the dual method and the KKT residual run
bodies written out once per number of variables d, every product an
explicit sum from +0.0 added left to right, with no BLAS call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import inf
from typing import List, Optional

import numpy as np

from .core import _def, _sum, dot_of, matvec_of
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


def _vec(items) -> str:
    return "[" + ", ".join(items) + "]"


def _dot(u, v) -> str:
    return _sum(f"{a} * {b}" for a, b in zip(u, v))


def _max_abs(target: str, terms) -> str:
    """A line setting target to float(np.abs(terms).max()), NaN if any
    term is NaN, on floats (0.0 for no terms)."""
    return "; ".join([f"{target} = {f'abs({terms[0]})' if terms else '0.0'}"] + [
        f"{target} = ab if (ab := abs({v})) > {target} or ab != ab else {target}"
        for v in terms[1:]])


@lru_cache(maxsize=None)
def _factor_of(d: int):
    """H, reg -> the rows of L^-1 for H + reg*I = LL', written out for d.
    H is not symmetric when max|H - H'| > 1e-9 (1 + max|H|), a NaN passing
    as in numpy. H + reg*I is read below its diagonal, as LAPACK's lower
    Cholesky reads it, and fails on a pivot that is not > 0, NaN included."""
    def l(i, ts):
        return [f"l{i}_{t}" for t in ts]

    D = range(d)
    lines = [_vec(_vec(f"H{i}_{j}" for j in D) for i in D) + " = H",
             _max_abs("top", [f"H{i}_{j}" for i in D for j in D]),
             _max_abs("asym", [f"H{i}_{j} - H{j}_{i}" for i in D for j in range(i)]),
             "if asym > 1e-9 * (1.0 + top): raise ValueError('H must be symmetric')"]
    for j in D:
        lines += [f"p = H{j}_{j} + reg * 1.0 - {_dot(l(j, range(j)), l(j, range(j)))}",
                  "if not p > 0.0: raise IndefiniteQPError('H + reg*I must be positive definite')",
                  f"l{j}_{j} = sqrt(p)"]
        lines += [f"l{i}_{j} = (H{i}_{j} + reg * 0.0 - {_dot(l(i, range(j)), l(j, range(j)))})"
                  f" / l{j}_{j}" for i in range(j + 1, d)]
    for j in D:
        lines += [f"v{j}_{j} = 1.0 / l{j}_{j}"] + [
            f"v{i}_{j} = -{_dot(l(i, range(j, i)), [f'v{t}_{j}' for t in range(j, i)])} / l{i}_{i}"
            for i in range(j + 1, d)]
    return _def("H, reg", lines, _vec(_vec(f"v{i}_{j}" if j <= i else "0.0" for j in D) for i in D),
                **globals(), sqrt=math.sqrt)


class QPSpec:
    """Cost (H, c) with Tikhonov parameter reg and inequality rows A z >= b,
    each given as an array or as lists of Python floats in its shape. The
    spec keeps them as floats only, Hs, cs, As and bs, with the factor of H
    + reg*I, or for d = 1 H + reg itself, which must pass the pivot test."""

    def __init__(self, H, c, A, b, reg: float = 1e-9):
        self.cs = c if type(c) is list else np.asarray(c, dtype=float).ravel().tolist()
        d = len(self.cs)
        self.Hs = H if type(H) is list else np.asarray(H, dtype=float).reshape(d, d).tolist()
        self.reg = reg
        self._set_rows(A, b)
        self._factor = self.Hs[0][0] + reg if d == 1 else _factor_of(d)(self.Hs, reg)
        if d == 1 and not self._factor > 0.0:
            raise IndefiniteQPError("H + reg*I must be positive definite")

    def _set_rows(self, A, b):
        self.As = A if type(A) is list else (
            np.asarray(A, dtype=float).reshape(-1, len(self.cs)).tolist())
        self.bs = b if type(b) is list else np.asarray(b, dtype=float).ravel().tolist()
        if len(self.As) != len(self.bs):
            raise ValueError("row count of A and length of b disagree")

    def with_rows(self, A, b) -> "QPSpec":
        """The same cost with the rows A z >= b, sharing this spec's factor:
        it solves exactly as QPSpec(H, c, A, b, reg) would."""
        spec = object.__new__(QPSpec)
        spec.Hs, spec.cs, spec.reg, spec._factor = self.Hs, self.cs, self.reg, self._factor
        spec._set_rows(A, b)
        return spec

    dim = property(lambda self: len(self.cs))
    n_rows = property(lambda self: len(self.bs))

    def objective(self, z) -> float:
        """0.5 z'(H + reg*I)z + c'z, explicit sums on floats."""
        z, d = np.asarray(z, dtype=float).ravel().tolist(), self.dim
        Hr = [[h + self.reg * float(i == j) for j, h in enumerate(row)]
              for i, row in enumerate(self.Hs)]
        return 0.5 * dot_of(d)(z, matvec_of(d, d)(Hr, z)) + dot_of(d)(self.cs, z)


@dataclass
class QPSolution:
    """Outcome of solve_qp: the point zs and each row's multiplier lams, as
    floats (None when infeasible); kkt_residual is computed when first
    read."""

    zs: Optional[List[float]]
    lams: Optional[List[float]]
    active_set: List[int]
    status: str
    iterations: int = 0
    spec: Optional[QPSpec] = field(default=None, repr=False, compare=False)

    optimal = property(lambda self: self.status == STATUS_OPTIMAL)

    @cached_property
    def kkt_residual(self) -> float:
        """Largest scaled KKT residual; inf when infeasible."""
        if self.zs is None:
            return math.inf
        return _kkt_of(len(self.zs))(self.spec, self.zs, self.lams)


@lru_cache(maxsize=None)
def _kkt_of(d: int):
    """spec, z, lam -> the largest of the four scaled KKT residuals of the
    point z with the row multiplier list lam, written out for d: stationarity |(H +
    reg*I)z + c - A'lam|_max / (1 + |(H + reg*I)z|_max + |c|_max), and with
    rows primal -min(Az - b) / (1 + |b|_max), dual -min(lam) / (1 +
    |lam|_max) and complementarity |lam * (Az - b)|_max / (1 + |lam|_max (1
    + |Az - b|_max)). Each max and min is NaN if a term is NaN, as in numpy;
    H + reg*I is read as _factor_of reads it."""
    D = range(d)
    z, c, a, g, h = ([f"{x}{i}" for i in D] for x in "zcagh")
    Hr = [[f"(H{i}_{j} + reg * {float(i == j)})" for j in D] for i in D]

    def fold(target, v, op):   # target = v if v op target, or v is NaN
        return f"if {v} {op} {target} or {v} != {v}: {target} = {v}"

    lines = [f"{_vec(_vec(f'H{i}_{j}' for j in D) for i in D)} = spec.Hs", "reg = spec.reg",
             f"{_vec(c)} = spec.cs", f"{_vec(z)} = z",
             *(f"{h[i]} = {_dot(row, z)}" for i, row in enumerate(Hr)),
             *(f"{g[j]} = 0.0" for j in D),
             f"for {_vec(a)}, l in zip(spec.As, lam):",
             *(f"    {g[j]} = {g[j]} + l * {a[j]}" for j in D),
             _max_abs("r", [f"{h[i]} + {c[i]} - {g[i]}" for i in D]),
             _max_abs("h", h), _max_abs("c", c),
             "r_stat = r / (1.0 + h + c)",
             "if not lam: return r_stat",
             "s_min = l_min = inf",
             "s_max = l_max = ls_max = b_max = 0.0",
             f"for {_vec(a)}, b_i, l in zip(spec.As, spec.bs, lam):",
             f"    s = {_dot(a, z)} - b_i",
             "    " + fold("s_min", "s", "<"), "    " + fold("l_min", "l", "<"),
             "    s_abs, l_abs, ls_abs, b_abs = abs(s), abs(l), abs(l * s), abs(b_i)",
             "    " + fold("s_max", "s_abs", ">"), "    " + fold("l_max", "l_abs", ">"),
             "    " + fold("ls_max", "ls_abs", ">"), "    " + fold("b_max", "b_abs", ">"),
             "r_pri = -s_min / (1.0 + b_max)",
             "r_dual = -l_min / (1.0 + l_max)",
             "r_comp = ls_max / (1.0 + l_max * (1.0 + s_max))"]
    return _def("spec, z, lam", lines, "max(r_stat, r_pri, r_dual, r_comp, 0.0)", inf=math.inf)


def _step_of(d: int, q: int):
    """(split, add) for q active rows of d variables, written out. split(Q,
    R, n) gives (R d1, s, s's) for the coordinates d1 of n in the columns
    Q[:q] and its part s orthogonal to them, n_i + (0.0 + Q[0][i]*(-d1_0) +
    ...), by two Gram-Schmidt passes; R holds the rows of R^-1 of the active
    normals' thin QR, and add grows it: R^-1 gains the column (-r, 1)/|s|."""
    D, Qs = range(d), range(q)
    Q = [[f"Q{j}_{i}" for i in D] for j in Qs]
    n, s = ([f"{x}{i}" for i in D] for x in "ns")
    c, e = ([f"{x}{j}" for j in Qs] for x in "ce")

    def part(v, coef):
        return _vec(f"{v[i]} + " + _dot([Qj[i] for Qj in Q], ["-" + x for x in coef]) for i in D)

    lines = [f"{_vec(n)} = n"] + ([
        f"{_vec(map(_vec, Q))} = Q[:{q}]", f"{_vec(c)} = {_vec(_dot(Qj, n) for Qj in Q)}",
        f"{_vec(s)} = {part(n, c)}", f"{_vec(e)} = {_vec(_dot(Qj, s) for Qj in Q)}",
        f"{_vec(s)} = {part(s, e)}"] if q else [])
    r = _vec(_dot([f"R[{j}][{l}]" for l in Qs], [f"({c[l]} + {e[l]})" for l in Qs]) for j in Qs)
    t = s if q else n
    add = [f"{_vec(s)} = s", "rho = sqrt(ss)", f"Q[{q}] = {_vec(x + ' / rho' for x in s)}"]
    return (_def("Q, R, n", lines, f"{r}, {_vec(t)}, {_dot(t, t)}"),
            _def("Q, R, r, s, ss", add + [f"R[{j}][{q}] = r[{j}] / -rho" for j in Qs]
                 + [f"R[{q}][{q}] = 1.0 / rho"], None, sqrt=math.sqrt))


# solve_qp's body; _solver_of writes out its {...} for d
_SOLVER = """\
{L} = spec._factor
{c} = spec.cs
A, b = spec.As, spec.bs
k = len(b)
if max_iter is None:
    max_iter = 60 * (k + 2)
# row i is scaled by w_i = 2^-e, |row|_max = f 2^e with 0.5 <= f < 1 (1 when
# |row|_max is 0, inf or NaN, inf below 2^-1024), which is exact, so that
# its squared norm neither underflows nor overflows; in y = L'z with H +
# reg*I = LL' the cost becomes 0.5|y|^2 + (L^-1 c)'y and row i reads
# N_i'y >= bw_i with N_i = L^-1 A_i' w_i
w, N, bw, nrm, rows = [], [], [], [], []
for {a}, b_i in zip(A, b):
    {m_a}
    e = frexp(m)[1]
    s = ldexp(1.0, -e) if e > -1024 else inf
    {n} = {L_a}
    nr, bs = sqrt({n_n}), b_i * s
    w.append(s), N.append({n}), bw.append(bs), nrm.append(nr)
    rows.append(({n_}bs, _FEAS_TOL * abs(bs) + _TINY * s, _FEAS_TOL * nr, max(nr, 1e-300)))
{y} = {L_c}
# a slack's rounding grows with the largest point met, not the current one
{y_max}
# u: the multiplier of each active row, then p's; Q: columns, the active
# normals being Q[:q] R[:q, :q]; R: rows of R^-1, upper triangular
active, u, Q, R, p = [], [], [None] * {d}, [[0.0] * {d} for _ in range({d})], -1
for it in range(1, max_iter + 1):
    if p < 0:
        # the most violated row relative to its norm, the first one on
        # ties; a NaN slack or tolerance violates nothing. An active row
        # is never violated: its slack is the rounding left by the step
        # that made it hold and by later steps along s, orthogonal to it
        # to working precision, a few ulps of nrm[i] * y_max, far under
        # the threshold of about 450 ulps
        worst = inf
        for i, ({n_}bwi, tb, tn, ns) in enumerate(rows):
            s_i = {y_n} - bwi
            if s_i < -(tb + tn * y_max):
                ratio = s_i / ns
                if ratio < worst:
                    worst, p = ratio, i
        if p < 0:
            {z} = {LT_y}
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
            kept = [i for i in sorted(active) if lam[i] > 0.0 or abs({A_z} - b[i]) <= tol]
            return QPSolution({z}, lam, kept, STATUS_OPTIMAL, it, spec)
        u.append(0.0)
    q = len(active)
    n = N[p]
    r, s, ss = SPLIT[q](Q, R, n)
    # dual step: the first active multiplier to reach zero
    t1, drop, t2, dep = inf, -1, inf, _DEP_TOL * nrm[p]
    for j, r_j in enumerate(r):
        if r_j > 0.0 and u[j] / r_j < t1:
            t1, drop = u[j] / r_j, j
    # primal step: the one making row p hold with equality; none when p's
    # normal lies in the span of the active normals (a full active set)
    if q < {d} and ss > dep * dep:
        t2 = (bw[p] - {n_y}) / ss
    if t1 == inf and t2 == inf:
        return QPSolution(None, None, [], STATUS_INFEASIBLE, it, spec)
    t = min(t1, t2)
    for j, r_j in enumerate(r):
        u[j] -= t * r_j
    u[q] += t
    if t2 < inf:
        {y} = {y_step}
        {m_y}
        if m > y_max:
            y_max = m
    if t2 <= t1:
        ADD[q](Q, R, r, s, ss)
        active.append(p)
        p = -1
    else:
        del active[drop], u[drop]
        for j, i in enumerate(active):
            ADD[j](Q, R, *SPLIT[j](Q, R, N[i]))
raise QPIterationError('dual active set did not converge in %d iterations' % max_iter)"""


@lru_cache(maxsize=None)
def _solver_of(d: int):
    """solve_qp's body for d variables: _SOLVER with its sums written out
    as core.dot_of writes them; L^-T y is read off the rows of L^-1."""
    D = range(d)
    L = [[f"L{i}_{j}" for j in D] for i in D]
    a, c, n, y, z = ([f"{x}{i}" for i in D] for x in "acnyz")
    SPLIT, ADD = zip(*(_step_of(d, q) for q in range(d + 1)))
    src = _SOLVER.format(
        d=d, L=_vec(map(_vec, L)), a=_vec(a), c=_vec(c), n=_vec(n), y=_vec(y), z=_vec(z),
        n_="".join(f"{x}, " for x in n), m_a=_max_abs("m", a),
        L_a=_vec(_dot(row, [f"({x} * s)" for x in a]) for row in L), n_n=_dot(n, n),
        L_c=_vec(f"-{_dot(row, c)}" for row in L), y_max=_max_abs("y_max", y),
        y_n=_dot(y, n), LT_y=_vec(_dot([row[i] for row in L], y) for i in D),
        A_z=_dot([f"A[i][{j}]" for j in D], z), n_y=_dot([f"n[{i}]" for i in D], y),
        y_step=_vec(f"{x} + t * s[{i}]" for i, x in enumerate(y)), m_y=_max_abs("m", y))
    return _def("spec, max_iter", src.splitlines(), None, **globals(), SPLIT=SPLIT, ADD=ADD,
                sqrt=math.sqrt, frexp=math.frexp, ldexp=math.ldexp)


def _project(spec: QPSpec) -> QPSolution:
    """solve_qp for d = 1: z0 = -c/(H + reg) projected onto the interval of
    the rows a z >= b, b/a bounding z below where 0 < a < inf and above
    where -inf < a < 0, the first row binding on ties, with the multiplier
    ((H + reg) z + c) / a. As in the dual method, a NaN or infinite z0, row
    or b/a violates nothing; a zero row with finite b > 0 is infeasible."""
    hr, c = spec._factor, spec.cs[0]
    z, lam, active = -c / hr, [0.0] * len(spec.bs), []
    if not -inf < z < inf:
        return QPSolution([z], lam, active, STATUS_OPTIMAL, 1, spec)
    lo, hi = -inf, inf
    for i, ([a], b_i) in enumerate(zip(spec.As, spec.bs)):
        if 0.0 < a < inf:
            if lo < (r := b_i / a) < inf:
                lo, i_lo = r, i
        elif -inf < a < 0.0:
            if -inf < (r := b_i / a) < hi:
                hi, i_hi = r, i
        elif a == 0.0 and 0.0 < b_i < inf:
            return QPSolution(None, None, [], STATUS_INFEASIBLE, 1, spec)
    if lo > hi:
        return QPSolution(None, None, [], STATUS_INFEASIBLE, 1, spec)
    if z < lo or z > hi:
        z, i = (lo, i_lo) if z < lo else (hi, i_hi)
        lam[i], active = (hr * z + c) / spec.As[i][0], [i]
    return QPSolution([z], lam, active, STATUS_OPTIMAL, 1, spec)


def solve_qp(spec: QPSpec, max_iter: Optional[int] = None) -> QPSolution:
    """KKT-certified minimizer of the given problem, or status 'infeasible':
    for d = 1 _project's, in one iteration, and for d >= 2 the dual
    method's, infeasible when a violated row is a nonpositive combination
    of the active rows (a Farkas certificate from the dual). Each of its
    iterations certifies the point optimal, steps toward the chosen violated
    row p (adding p once it holds) or drops the active row whose multiplier
    reached zero first; max_iter bounds them."""
    d = len(spec.cs)
    return _project(spec) if d == 1 else _solver_of(d)(spec, max_iter)


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
