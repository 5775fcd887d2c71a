"""The generated evaluation code against the references in oracles.py:
expression functions against the tree walker, the engine's right-hand side
against the loop version and its integration loop against numerics.rk4_step
over that, value for value bit for bit (so +0.0 and -0.0 differ) or
exception for exception (type and message)."""

import dataclasses
import linecache
import math
import random
import re
import struct
import traceback

import numpy as np
import pytest

import ftcsim as F
from ftcsim import engine, exprlang
from ftcsim.exprlang import (BinOp, Call, DomainError, Literal, Neg, StateVar,
                             TimeVar, compile_expr, parse)
from ftcsim.faults import (AdditiveActuator, ExternalDisturbance,
                           FaultSchedule, LossOfEffectiveness)
from ftcsim.numerics import NonFiniteDerivative
from ftcsim.plant import DisturbanceChannel, LinearCore, NonlinearPair, ReferenceModel

from closed_loop import pack, rhs_for, scalar_decay_scenario
from oracles import LoopRhs, loop_run, walk
from test_exprlang import CORPUS, DOMAIN_ERRORS


def outcome(fn, *args):
    """('ok', bit patterns of the result(s)) or ('raise', type, message)."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raise", type(exc), str(exc))
    return ("ok", bits(value))


def bits(value):
    if isinstance(value, engine.SimTrace):
        return tuple(bits(getattr(value, f.name))
                     for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return (value.shape, b"".join(struct.pack("<d", v)
                                      for v in value.ravel().tolist()))
    if isinstance(value, (list, tuple)):
        return tuple(bits(v) for v in value)
    return (type(value), struct.pack("<d", value))


class TestExpressionsAgainstWalker:
    @pytest.mark.parametrize("src,t,x,_expected", CORPUS)
    def test_corpus(self, src, t, x, _expected):
        e = parse(src, 3)
        assert outcome(compile_expr(e), t, list(x)) == outcome(walk, e.node, t, x)

    @pytest.mark.parametrize("src", list(DOMAIN_ERRORS))
    def test_domain_errors(self, src):
        e = parse(src, 0)
        got = outcome(compile_expr(e), 2.0, [])
        assert got == outcome(walk, e.node, 2.0, [])
        assert got == ("raise", DomainError, DOMAIN_ERRORS[src])

    def test_random_trees(self):
        rng = random.Random(20)
        seen = set()
        points = [0.0, -0.0, 1.0, -1.0, 2.5, -3.75, 0.5, 1e-300, 1e300, 7.0]
        for _ in range(500):
            node = random_tree(rng, 5, seen)
            f = compile_expr(exprlang.Expr(node, 3))
            for _ in range(4):
                t = rng.choice(points + [rng.uniform(-5.0, 5.0)])
                x = [rng.choice(points + [rng.gauss(0.0, 3.0)])
                     for _ in range(3)]
                assert outcome(f, t, x) == outcome(walk, node, t, x), node
        kinds = {"literal", "inf", "time", "state", "neg"}
        kinds |= {f"op{op}" for op in "+-*/^"} | set(exprlang._FUNCTION_ARITY)
        assert kinds <= seen

    def test_non_finite_literal_bound_by_name(self):
        f = compile_expr(exprlang.Expr(BinOp("-", Literal(math.inf), TimeVar()), 0))
        source = "".join(linecache.getlines(f.__code__.co_filename))
        assert "inf" not in source and math.inf in f.__globals__.values()
        with pytest.raises(DomainError, match="result is not finite"):
            f(1.0, [])
        assert compile_expr(exprlang.Expr(Literal(math.inf), 0))(0.0, []) == math.inf


LEAVES = [0.0, -0.0, 1.0, 2.0, 0.5, 3.0, 10.0, -2.0, 1e308, 1e-310]


def random_tree(rng, depth, seen):
    """A random tree over every node kind, operator and function; the kinds
    drawn are added to seen."""
    kind = rng.choice(["literal", "time", "state"] if depth == 0 else
                      ["literal", "time", "state", "neg", "op", "call", "call"])
    if kind == "literal":
        if rng.random() < 0.05:
            seen.add("inf")
            return Literal(rng.choice([math.inf, -math.inf]))
        seen.add("literal")
        return Literal(rng.choice(LEAVES))
    seen.add(kind)
    if kind == "time":
        return TimeVar()
    if kind == "state":
        return StateVar(rng.randint(1, 3))
    if kind == "neg":
        return Neg(random_tree(rng, depth - 1, seen))
    if kind == "op":
        op = rng.choice("+-*/^")
        seen.add(f"op{op}")
        return BinOp(op, random_tree(rng, depth - 1, seen),
                     random_tree(rng, depth - 1, seen))
    name = rng.choice(sorted(exprlang._FUNCTION_ARITY))
    seen.add(name)
    arity = exprlang._FUNCTION_ARITY[name]
    return Call(name, tuple(random_tree(rng, depth - 1, seen)
                            for _ in range(arity)))


def companion(coeffs):
    """Companion matrix whose last row is -coeffs."""
    n = len(coeffs)
    A = np.eye(n, k=1)
    A[-1] = -np.asarray(coeffs, dtype=float)
    return A


def oracle_scenario(n, mode, channel, seed, sparse=False):
    """A seeded n-state scenario with every event kind and b = -1.5 e_n or
    0.5 e_n. Its f, g and r exercise the domain checks, and g dips below
    its floor g_min = 0.3 on part of the state space; with sparse, they are
    small and vanish at the origin instead, so that on states full of
    signed zeros the sums in the right-hand side come out as signed zeros
    too."""
    rng = np.random.RandomState(seed)
    e_n = np.eye(n)[-1]
    core = LinearCore(A=companion(rng.uniform(-2.0, 3.0, n)),
                      b=rng.choice([-1.5, 0.5]) * e_n, C=np.ones((1, n)))
    ref = ReferenceModel(A_d=companion([math.comb(n, k) for k in range(n)]),
                         B_d=1.5 * e_n)
    xn = f"x{n}"
    if sparse:
        nl = NonlinearPair(f=parse(f"0.05*sin({xn})*x1", n),
                           g=parse("4 + 0.5*sin(t)", n))
        r = parse("step(t - 1)*sin(t)", 0)
    else:
        nl = NonlinearPair(
            f=parse(f"0.2*{xn}^2 - sin(t*x1)/(1 + x1^2) + log(abs({xn}) + 0.5)"
                    f" - max(x1, -{xn}) + sqrt(x1 + 2)", n),
            g=parse(f"1 + 0.8*sin(x1 + t) - min(0, {xn})*0", n), g_min=0.3)
        r = parse("step(t - 0.25)*cos(t)", 0)
    Q = rng.standard_normal((n, n))
    cfg = F.AdaptationConfig(gamma1=float(rng.uniform(1, 30)),
                             gamma2=float(rng.uniform(1, 300)),
                             gamma3=float(rng.uniform(1, 900)),
                             P=Q @ Q.T + n * np.eye(n), theta_design=0.5)
    if channel == "matched":
        ch = DisturbanceChannel(mode="matched", scale=float(rng.uniform(-1, 1)))
    else:
        ch = DisturbanceChannel(mode="constant", E=rng.standard_normal(n))
    sched = FaultSchedule((
        LossOfEffectiveness(at=0.5, theta=0.8),
        LossOfEffectiveness(at=1.0, theta=0.45),
        AdditiveActuator(at=0.5, signal=parse("0.3*sin(3*t)", 0)),
        AdditiveActuator(at=1.5, signal=parse("t", 0)),
        ExternalDisturbance(at=1.0, signal=parse("1", 0)),
        ExternalDisturbance(at=2.0, signal=parse("exp(-t)", 0))))
    zeros = np.zeros(n)
    return F.Scenario(core=core, nl=nl, ref=ref, channel=ch, adaptation=cfg,
                      schedule=sched, r_signal=r, x_hat0=zeros, x_f0=zeros,
                      x_d0=zeros, t_end=3.0, h=0.01, mode=mode)


def states(rng, size, sparse):
    if not sparse:
        return (2.0 * rng.standard_normal(size)).tolist()
    pool = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5]
    return [pool[i] for i in rng.randint(len(pool), size=size)]


class TestRhsAgainstLoops:
    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("channel", ["matched", "constant"])
    @pytest.mark.parametrize("mode", engine.MODES)
    @pytest.mark.parametrize("sparse", [False, True], ids=["rich", "sparse"])
    def test_random_states(self, mode, channel, n, sparse):
        s = oracle_scenario(n, mode, channel, seed=n, sparse=sparse)
        rhs, oracle = engine._CompiledRhs(s), LoopRhs(s)
        rng = np.random.RandomState(100 + n)
        size = 4 * n + 2
        times = [0.0, 0.5, 1.0, 1.5, 2.0, 0.49999999, 2.999]
        zs = [[0.0] * size, [-0.0] * size]
        zs += [states(rng, size, sparse) for _ in range(100)]
        kinds = set()
        for k, z in enumerate(zs):
            t = times[k % len(times)] if k < 14 else float(rng.uniform(0, 3))
            want = outcome(oracle.full, t, z)
            assert outcome(rhs.full, t, z) == want, (t, z)
            kinds.add(want[1] if want[0] == "raise" else "ok")
        # the floor on g and the sqrt domain are both exercised
        assert kinds == ({"ok"} if sparse
                         else {"ok", F.InputGainTooSmall, DomainError})


# h = 0.0003 and at = 0.3003 pass the grid check, but 1001 * 0.0003 lands
# just below 0.3003, so the events switch on between the stages of a step;
# the loop must follow the oracle there as well
OFF_GRID = FaultSchedule((
    LossOfEffectiveness(at=0.3003, theta=0.45),
    AdditiveActuator(at=0.3003, signal=parse("0.3*sin(3*t)", 0)),
    ExternalDisturbance(at=0.3003, signal=parse("1", 0))))


def assert_loop_matches_oracle(s):
    """engine.run and oracles.loop_run give bit-identical traces, or raise
    the same exception with the same message; returns the outcome."""
    want = outcome(loop_run, s)
    assert outcome(engine.run, s) == want
    return want


class TestLoopAgainstOracle:
    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("channel", ["matched", "constant"])
    @pytest.mark.parametrize("mode", engine.MODES)
    @pytest.mark.parametrize("sparse", [False, True], ids=["rich", "sparse"])
    def test_scenario_grid(self, mode, channel, n, sparse):
        s = oracle_scenario(n, mode, channel, seed=n, sparse=sparse)
        for h in (0.5, 0.125, 0.01):
            assert_loop_matches_oracle(dataclasses.replace(s, h=h))
        if n == 3:
            assert assert_loop_matches_oracle(dataclasses.replace(
                s, h=0.0003, t_end=0.33, schedule=OFF_GRID))[0] == "ok"


def scalar(**kw):
    """The scalar decay scenario of closed_loop with f, g given as sources."""
    nl = NonlinearPair(f=parse(kw.pop("f", "0"), 1), g=parse(kw.pop("g", "1"), 1))
    return scalar_decay_scenario(nl=nl, **kw)


class TestLoopAborts:
    def test_domain_error_mid_step(self):
        # the second stage of the step from 1.5 evaluates log(0)
        s = scalar(f="log(1.75 - t)", t_end=3.0, h=0.5)
        assert assert_loop_matches_oracle(s) == (
            "raise", DomainError,
            "log of non-positive value 0.0 (during step starting at t=1.5)")

    def test_input_gain_too_small_unwrapped(self):
        # the fourth stage of the step from 0.75 has g(1.0) = 0
        s = scalar(g="1 - t", t_end=2.0, h=0.25)
        assert assert_loop_matches_oracle(s) == (
            "raise", F.InputGainTooSmall,
            "|g|=0.000e+00 below floor 1.000e-06 at t=1.0")

    def test_non_finite_stage(self):
        # h A = 10: x_f grows about 645-fold per step, and the fourth stage
        # (about 3e5 x_f) overflows before the state does
        s = scalar(core=LinearCore(A=[[1000.0]], b=[1.0], C=[[1.0]]),
                   ref=ReferenceModel(A_d=[[-1.0]], B_d=[1.0]),
                   t_end=2.0, h=0.01, mode="faulty_no_va",
                   x_f0=np.array([2.0]))
        assert assert_loop_matches_oracle(s) == (
            "raise", NonFiniteDerivative,
            "non-finite derivative near t=1.08 "
            "(during step starting at t=1.08)")

    def test_finite_stages_overflowing_state(self):
        # every stage of x_f' is about 1e308, so k1 + 2 k2 overflows
        s = scalar(channel=F.DisturbanceChannel(mode="constant", E=[1.0]),
                   schedule=FaultSchedule((
                       ExternalDisturbance(at=0.0, signal=parse("1e308", 0)),)),
                   t_end=0.01, mode="faulty_no_va")
        assert assert_loop_matches_oracle(s) == (
            "raise", NonFiniteDerivative, "state diverged during step at t=0.0")

    def test_finite_elements_with_overflowing_sum_continue(self):
        # x_d, x_hat and x_f near 1e308 barely move, but their sum is inf
        slow = dict(core=LinearCore(A=[[-1e-3]], b=[1.0], C=[[1.0]]),
                    ref=ReferenceModel(A_d=[[-1e-3]], B_d=[1.0]))
        s = scalar(x_d0=np.array([1e308]), x_hat0=np.array([1e308]),
                   t_end=0.01, **slow)
        assert assert_loop_matches_oracle(s)[0] == "ok"
        tr = engine.run(s)
        assert tr.x_hat.shape == (11, 1) and np.isfinite(tr.x_hat).all()
        assert not math.isfinite(float(tr.x_d[-1, 0]) + float(tr.x_hat[-1, 0]))


# I is 1 while x1 lies in [a, b) and 0 elsewhere; each helper fails on I = 1
WINDOW = "(step(x1 - {a}) - step(x1 - {b}))"
HELPER_ERRORS = {
    "exp(1000*I)": "exp overflow at 1000.0",
    "log(1 - I)": "log of non-positive value 0.0",
    "sqrt(-I)": "sqrt of negative value -1.0",
    "(-I)^0.5": "negative base -1.0 with fractional exponent",
    "(1 - I)^-1": "zero base with negative exponent",
    "(1e200*I + 2)^2": "pow overflow at 1e+200^2.0",
}
# From x = 1 the scalar decay's stages with h = 0.5 read x1 = 1, 0.75,
# 0.8125 and 0.59375; each window holds one stage's x1 and none before it
STAGE_WINDOWS = {2: (0.7, 0.8), 3: (0.78, 0.85), 4: (0.55, 0.65)}


def failing_stage(s):
    """The RK4 stage (1 to 4) in which oracles.loop_run raises on s."""
    rhs, calls = LoopRhs(s), []
    full = rhs.full
    rhs.full = lambda t, z: (calls.append(t), full(t, z))[1]
    with pytest.raises(Exception):
        loop_run(s, rhs)
    # a step makes one recording call and three stage calls
    return (len(calls) - 1) % 4 + 1


class TestLoopHelperErrors:
    @pytest.mark.parametrize("stage", sorted(STAGE_WINDOWS))
    @pytest.mark.parametrize("src", list(HELPER_ERRORS))
    def test_raised_mid_step(self, src, stage):
        # f cancels out of x_hat' = -x_hat, so the stages move as without it
        a, b = STAGE_WINDOWS[stage]
        s = scalar(f="0.5*" + src.replace("I", WINDOW.format(a=a, b=b)),
                   t_end=2.0, h=0.5)
        assert failing_stage(s) == stage
        assert assert_loop_matches_oracle(s) == (
            "raise", DomainError,
            f"{HELPER_ERRORS[src]} (during step starting at t=0.0)")


POWERS = ["x1^2", "x1^3", "x1^0", "x1^1.5", "x1^0.5", "x1^-1", "x1^-2",
          "x1^-0.5", "(-x1)^2", "x1^1e999", "x1^t", "x1^(t - 1)", "x1^x2",
          "2^x1", "(x1 - x2)^(x3 - 1)", "x2^x3^2"]
POWER_POINTS = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0, 1e200,
                -1e200, 1e-200, math.inf, -math.inf]


class TestPowerExponents:
    @pytest.mark.parametrize("src", POWERS)
    def test_against_walker(self, src):
        e = parse(src, 3)
        f = compile_expr(e)
        for i, x1 in enumerate(POWER_POINTS):
            for x2 in (0.0, -3.0, 2.5):
                t = [0.0, 1.0, 2.5, -1.5][i % 4]
                x = [x1, x2, POWER_POINTS[-1 - i]]
                assert outcome(f, t, x) == outcome(walk, e.node, t, x), x

    def test_in_loop(self):
        # constant integer, fractional and negative exponents, and exponents
        # of t and of the state, on x1 decaying from 1 over t in [0, 5]
        s = scalar(f="x1^2 - x1^3 + abs(x1)^1.5 + (x1 + 2)^-1 + x1^-0.5"
                     " + x1^(t/4) + 2^(-x1) + abs(x1)^x1", t_end=5.0, h=0.05)
        assert assert_loop_matches_oracle(s)[0] == "ok"


def wide_scenario():
    """An n = 5 scenario with the nonlinearity of the benchmark's wide_nl
    workload: every inlined helper, and constant exponents only."""
    s = oracle_scenario(5, "faulty_with_va", "constant", seed=5)
    nl = NonlinearPair(
        f=parse("0.08*sin(x1)/(1+x2^2) + 0.08*(sqrt(1+x3^2)-1) "
                "- 0.17*log(1+x4^2) + 0.05*min(max(x5,-1),1) "
                "+ 0.15*sign(x1)*abs(x2)^1.5*exp(-x3^2)", 5),
        g=parse("3 + 0.7*exp(-x1^2) + 0.3*step(x2)", 5))
    return dataclasses.replace(s, nl=nl)


HELPER_CALL = re.compile(r"\b_(step|sign|sqrt|log|exp)\(")
POW_CALL = re.compile(r"\b_apply_pow\(([^,()]+), ([^()]+|\([^()]*\))\)")


class TestInlinedHelpers:
    @pytest.mark.parametrize("which", ["stock", "wide"])
    def test_loop_calls_no_helper(self, which, stock):
        s = stock if which == "stock" else wide_scenario()
        source = engine._CompiledRhs(s).source
        assert not HELPER_CALL.search(source)
        assert "_apply_pow(" not in source
        assert "_math_pow(" in source or which == "stock"

    def test_computed_exponent_calls_apply_pow(self, stock):
        nl = NonlinearPair(f=parse("x1^x2 + x3^t + x1^-2", 3), g=stock.nl.g)
        source = rhs_for(stock, nl=nl).source
        exponents = {m.group(2) for m in POW_CALL.finditer(source)}
        assert exponents and all(e.isidentifier() and not e.startswith("_c")
                                 for e in exponents)
        assert source.count("_apply_pow(") == len(POW_CALL.findall(source))

    def test_wide_loop_matches_oracle(self):
        s = dataclasses.replace(wide_scenario(), t_end=3.0, h=0.01)
        assert assert_loop_matches_oracle(s)[0] == "ok"


class TestValueNumbering:
    def test_stage_three_reuses_values_of_t(self, stock):
        # r = step(t) and g = 0.5*sin(t) + 4 depend on t alone, and stage 3
        # runs at stage 2's t = tk + h/2: neither it nor the |g| test repeats
        source = engine._CompiledRhs(stock).source
        assert source.count("_sin(t2)") == 1
        assert source.count("raise _InputGainTooSmall") == 3

    @pytest.mark.parametrize("src", ["x1*x1 + t", "(x1*t - 1)*3",
                                     "x1^2 + 1", "2*exp(x1) - t"])
    def test_chain_tested_once(self, src):
        # a non-finite operand of + - * makes the result non-finite, so a
        # chain needs only its last finiteness test
        e = parse(src, 1)
        f = compile_expr(e)
        for t, x1 in [(1.0, 1e200), (1.0, math.inf), (math.nan, 1.0),
                      (-1e308, 2.0), (0.0, -0.0), (2.0, 1.0), (math.inf, 0.0)]:
            assert outcome(f, t, [x1]) == outcome(walk, e.node, t, [x1]), (t, x1)
        source = "".join(linecache.getlines(f.__code__.co_filename))
        assert source.count("'result is not finite'") == 1

    def test_repeated_subtree_computed_once(self):
        # f reads x3^2 twice; in stage 1, x3 of x_hat is z7
        source = engine._CompiledRhs(wide_scenario()).source
        assert source.count("_math_pow(z7, 2.0)") == 1


class TestGeneratedSource:
    def test_traceback_shows_generated_line(self, stock):
        nl = NonlinearPair(f=parse("log(x1)", 3), g=stock.nl.g)
        rhs = rhs_for(stock, nl=nl)
        with pytest.raises(DomainError) as exc_info:
            rhs.full(0.0, pack([-1.0, 0.0, 0.0]))
        filename = rhs.full.__code__.co_filename
        frames = [fr for fr in traceback.extract_tb(exc_info.value.__traceback__)
                  if fr.filename == filename]
        assert len(frames) == 1
        assert frames[0].line == ("if x_hat0 <= 0.0: raise _DomainError("
                                  "f'log of non-positive value {x_hat0!r}')")
        assert linecache.getline(filename, frames[0].lineno).strip() == frames[0].line
        assert frames[0].line in rhs.source

    def test_traceback_shows_generated_loop_line(self):
        s = scalar(f="log(1.75 - t)", t_end=3.0, h=0.5)
        with pytest.raises(DomainError) as exc_info:
            engine.run(s)
        outer = traceback.extract_tb(exc_info.value.__traceback__)[-1]
        inner = traceback.extract_tb(exc_info.value.__cause__.__traceback__)
        inner = [fr for fr in inner if fr.filename == outer.filename]
        assert outer.filename.startswith("<ftcsim rhs ")
        assert outer.name == "integrate" and len(inner) == 1
        assert inner[0].name == "integrate"
        assert outer.line.startswith("raise _DomainError(")
        assert re.fullmatch(r"if (v\d+) <= 0\.0: raise _DomainError\("
                            r"f'log of non-positive value \{\1!r\}'\)",
                            inner[0].line)
        for fr in (outer, inner[0]):
            assert linecache.getline(fr.filename, fr.lineno).strip() == fr.line

    def test_successful_runs_drop_their_source(self):
        def rhs_entries():
            return {f for f in linecache.cache if f.startswith("<ftcsim rhs ")}
        before = rhs_entries()
        for mode in engine.MODES:
            engine.run(scalar(f="0.1*sin(x1)", t_end=1.0, h=0.5, mode=mode))
        assert rhs_entries() == before

    def test_scenario_text_never_enters_source(self, stock):
        nl = NonlinearPair(f=parse("0.05*sin(x3) + 1e999*0", 3), g=stock.nl.g)
        rhs = rhs_for(stock, nl=nl, r_signal="step(t)")
        assert "1e999" not in rhs.source and "inf" not in rhs.source
        assert "sin(x3)" not in rhs.source

    @pytest.mark.parametrize("node", [
        BinOp("+ __import__('os').getpid() +", Literal(1.0), Literal(2.0)),
        Call("__import__", (Literal(1.0),)),
    ])
    def test_foreign_nodes_never_reach_source(self, node):
        with pytest.raises(AssertionError):
            compile_expr(exprlang.Expr(node, 0))
