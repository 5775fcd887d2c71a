"""Independent references: for the generated evaluation code, a
tree-walking expression evaluator with each function a plain Python
function (the generated code writes exp, log, sqrt, sign, step, min and
max out inline), the closed-loop right-hand side written as plain loops
over it, and the RK4 integration loop over that (the generated code must
agree with all three bit for bit); for the numpy.linalg tests, rank and
positive definiteness in exact rational arithmetic."""

import math
from fractions import Fraction

import numpy as np

from ftcsim import engine, exprlang, numerics
from ftcsim.controller import InputGainTooSmall
from ftcsim.exprlang import BinOp, Call, DomainError, Literal, Neg, StateVar, TimeVar
from ftcsim.faults import AdditiveActuator, ExternalDisturbance, LossOfEffectiveness
from ftcsim.numerics import NonFiniteDerivative


def _exp(a):
    try:
        v = math.exp(a)
    except OverflowError as exc:
        raise DomainError(f"exp overflow at {a!r}") from exc
    if not math.isfinite(v):
        raise DomainError("result is not finite")
    return v


def _log(a):
    if a <= 0.0:
        raise DomainError(f"log of non-positive value {a!r}")
    return math.log(a)


def _sqrt(a):
    if a < 0.0:
        raise DomainError(f"sqrt of negative value {a!r}")
    return math.sqrt(a)


def _sign(a):
    return 0.0 if a == 0.0 else math.copysign(1.0, a)


def _step(a):
    return 0.0 if a < 0.0 else 1.0


# the callable behind each function name, as walk applies it; ^ goes
# through exprlang._apply_pow
FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": _exp,
    "log": _log, "sqrt": _sqrt, "abs": abs, "sign": _sign, "step": _step,
    "min": min, "max": max,
}


def walk(node, t, x):
    """Evaluate a parsed tree by recursion: operands left to right, + - *
    checked for finiteness, / checking both operands' divisor first."""
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, StateVar):
        return float(x[node.index - 1])
    if isinstance(node, Neg):
        return -walk(node.operand, t, x)
    if isinstance(node, Call):
        args = [walk(a, t, x) for a in node.args]
        if node.name in ("sin", "cos", "tan") and not math.isfinite(args[0]):
            raise DomainError(f"{node.name} of non-finite value {args[0]!r}")
        return FUNCTIONS[node.name](*args)
    assert isinstance(node, BinOp), node
    a = walk(node.left, t, x)
    b = walk(node.right, t, x)
    if node.op == "^":
        return exprlang._apply_pow(a, b)
    if node.op == "/":
        if b == 0.0:
            raise DomainError("division by zero")
        v = a / b
    elif node.op == "+":
        v = a + b
    elif node.op == "-":
        v = a - b
    else:
        v = a * b
    if not math.isfinite(v):
        raise DomainError("result is not finite")
    return v


def _walker(expr):
    return lambda t, x: walk(expr.node, t, x)


class LoopRhs:
    """The closed-loop right-hand side as nested loops over lists, with the
    expressions evaluated by walk; see engine._CompiledRhs for the
    equations."""

    def __init__(self, s):
        gains = s.gains
        self.n = s.core.n
        self.mode = s.mode
        self.A = [[float(v) for v in row] for row in s.core.A]
        self.b = [float(v) for v in s.core.b]
        self.A_d = [[float(v) for v in row] for row in s.ref.A_d]
        self.B_d = [float(v) for v in s.ref.B_d]
        self.k_x = [float(v) for v in gains.k_x]
        self.k_r = float(gains.k_r)
        self.f = _walker(s.nl.f)
        self.g = _walker(s.nl.g)
        self.r = _walker(s.r_signal)
        self.g_min = s.nl.g_min
        events = s.schedule.events
        self.loss = [(e.at, e.theta) for e in events
                     if isinstance(e, LossOfEffectiveness)]
        self.additive = [(e.at, _walker(e.signal)) for e in events
                         if isinstance(e, AdditiveActuator)]
        self.disturb = [(e.at, _walker(e.signal)) for e in events
                        if isinstance(e, ExternalDisturbance)]
        self.matched = s.channel.mode == "matched"
        self.scale = float(s.channel.scale) if self.matched else 0.0
        self.E = None if self.matched else [float(v) for v in s.channel.E]
        cfg = s.adaptation
        self.gamma1, self.gamma2, self.gamma3 = cfg.gamma1, cfg.gamma2, cfg.gamma3
        self.P = [[float(v) for v in row] for row in cfg.P]

    def theta_at(self, t):
        theta = 1.0
        for at, th in self.loss:
            if at > t:
                break
            theta = th
        return theta

    def signal_sum(self, entries, t):
        total = 0.0
        for at, fn in entries:
            if at <= t:
                total += fn(t, ())
        return total

    def full(self, t, z):
        n = self.n
        x_d = z[0:n]
        x_hat = z[n:2 * n]

        r = self.r(t, ())
        g_hat = self.g(t, x_hat)
        if abs(g_hat) < self.g_min:
            raise InputGainTooSmall(
                f"|g|={abs(g_hat):.3e} below floor {self.g_min:.3e} at t={t!r}")
        f_hat = self.f(t, x_hat)
        u = -f_hat + self.k_r * r
        for i in range(n):
            u += self.k_x[i] * x_hat[i]
        u /= g_hat

        out = [0.0] * (4 * n + 2)
        for i in range(n):
            acc = self.B_d[i] * r
            for j in range(n):
                acc += self.A_d[i][j] * x_d[j]
            out[i] = acc
        c_nom = f_hat + g_hat * u
        for i in range(n):
            acc = self.b[i] * c_nom
            for j in range(n):
                acc += self.A[i][j] * x_hat[j]
            out[n + i] = acc

        if self.mode == "nominal_only":
            out[2 * n:3 * n] = out[n:2 * n]
            return out, u, u

        x_f = z[2 * n:3 * n]
        M = z[3 * n:4 * n]
        N = z[4 * n]
        d_hat = z[4 * n + 1]
        x_t = [x_f[i] - x_hat[i] for i in range(n)]

        if self.mode == "faulty_with_va":
            u_f = N * u - d_hat
            for i in range(n):
                u_f += M[i] * x_t[i]
        else:
            u_f = u

        theta = self.theta_at(t)
        d_f = self.signal_sum(self.additive, t)
        d = self.signal_sum(self.disturb, t)
        f_f = self.f(t, x_f)
        g_f = self.g(t, x_f)
        c_f = f_f + theta * g_f * (u_f + d_f)
        for i in range(n):
            if self.matched:
                acc = self.b[i] * c_f + self.b[i] * (self.scale * g_f * d)
            else:
                acc = self.b[i] * c_f + self.E[i] * d
            for j in range(n):
                acc += self.A[i][j] * x_f[j]
            out[2 * n + i] = acc

        if self.mode == "faulty_with_va":
            sgn = 0.0
            for i in range(n):
                acc = 0.0
                for j in range(n):
                    acc += self.P[i][j] * x_t[j]
                sgn += self.b[i] * acc
            sgn *= g_f
            g1s = -self.gamma1 * sgn
            for i in range(n):
                out[3 * n + i] = g1s * x_t[i]
            out[4 * n] = -self.gamma2 * sgn * u
            out[4 * n + 1] = self.gamma3 * sgn
        return out, u, u_f


def loop_run(s, rhs=None):
    """engine.run as a Python loop: a recording call of rhs.full per row
    (LoopRhs by default) and numerics.rk4_step over it, which reuses the
    recorded derivative as its first stage; DomainError and
    NonFiniteDerivative get the step start time appended, and a non-finite
    state after a step is reported as divergence."""
    n = s.core.n
    rhs = LoopRhs(s) if rhs is None else rhs
    steps, h = s.n_steps, s.h
    x_f0 = s.x_hat0 if s.mode == "nominal_only" else s.x_f0
    z = (s.x_d0.tolist() + s.x_hat0.tolist() + x_f0.tolist()
         + [0.0] * n + [1.0, 0.0])
    Z = np.empty((steps + 1, 4 * n + 2))
    U = np.empty(steps + 1)
    UF = np.empty(steps + 1)
    for k in range(steps + 1):
        t = k * h
        try:
            k1, u, u_f = rhs.full(t, z)
            Z[k] = z
            U[k] = u
            UF[k] = u_f
            if k < steps:
                z = numerics.rk4_step(lambda t, z: rhs.full(t, z)[0],
                                      t, z, h, k1)
        except DomainError as exc:
            raise DomainError(f"{exc} (during step starting at t={t})") from exc
        except NonFiniteDerivative as exc:
            raise NonFiniteDerivative(
                f"{exc} (during step starting at t={t})") from exc
        if not all(map(math.isfinite, z)):
            raise NonFiniteDerivative(f"state diverged during step at t={t}")
    x_d, x_hat, x_f = Z[:, 0:n], Z[:, n:2 * n], Z[:, 2 * n:3 * n]
    Ct = s.core.C.T
    return engine.SimTrace(
        t=np.arange(steps + 1) * h, x_d=x_d, x_hat=x_hat, x_f=x_f,
        u=U, u_f=UF, M=Z[:, 3 * n:4 * n], N=Z[:, 4 * n],
        d_hat=Z[:, 4 * n + 1], e=x_hat - x_d, x_tilde=x_f - x_hat,
        y_d=x_d @ Ct, y_hat=x_hat @ Ct, y_f=x_f @ Ct)


def exact_rank(rows) -> int:
    """Rank of a matrix whose entries are ints or floats (each an exact
    rational), by Gaussian elimination over Fractions."""
    R = [[Fraction(float(v)) for v in row] for row in rows]
    rank = 0
    for col in range(len(R[0]) if R else 0):
        piv = next((r for r in range(rank, len(R)) if R[r][col] != 0), None)
        if piv is None:
            continue
        R[rank], R[piv] = R[piv], R[rank]
        for r in range(rank + 1, len(R)):
            f = R[r][col] / R[rank][col]
            R[r] = [a - f * b for a, b in zip(R[r], R[rank])]
        rank += 1
    return rank


def exact_positive_definite(M) -> bool:
    """Whether the symmetric matrix M, with its float entries read as exact
    rationals, is positive definite: every pivot of Gaussian elimination
    without row exchanges (the ratio of consecutive leading principal
    minors) must be positive."""
    R = [[Fraction(float(v)) for v in row] for row in M]
    for k in range(len(R)):
        if R[k][k] <= 0:
            return False
        for r in range(k + 1, len(R)):
            f = R[r][k] / R[k][k]
            R[r] = [a - f * b for a, b in zip(R[r], R[k])]
    return True
