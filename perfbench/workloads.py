"""Seeded workload inputs for the ftcsim benchmark.

Each workload turns a seed into scenario files and the list of `ftcsim`
command lines that make up one iteration. The same seed always writes
byte-identical files; the program only ever sees the generated files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0
H = 0.001


@dataclass(frozen=True)
class ScenarioRun:
    """One scenario simulated by `ftcsim run` and where its outputs land."""

    scenario: Path
    out_dir: Path
    mode: str
    n: int      # state dimension
    l: int      # output dimension
    steps: int  # integration steps; trace.csv has steps + 1 rows


@dataclass(frozen=True)
class VerifyRun:
    """One `ftcsim verify` call and the directory it writes verify.csv to."""

    scenario: Path
    out_dir: Path


@dataclass
class Prepared:
    """Everything one iteration of a workload runs and checks."""

    files: list[Path]
    calls: list[list[str]]          # ftcsim argv, run in this order
    runs: list[ScenarioRun] = field(default_factory=list)
    verifies: list[VerifyRun] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return sum(r.steps for r in self.runs)

    @property
    def operations(self) -> int:
        return len(self.runs) + len(self.verifies)


def _num(v: float) -> str:
    return f"{v:.6g}"


def _grid_time(rng: random.Random, lo: float, hi: float) -> str:
    """A time on the h-grid drawn uniformly from [lo, hi]."""
    k = rng.randint(round(lo / H), round(hi / H))
    return f"{k * H:.3f}"


def _poly_from_roots(roots: list[float]) -> list[float]:
    """Coefficients c0..c_{n-1} of prod(s + p) = s^n + c_{n-1} s^{n-1} + ... + c0."""
    coeffs = [1.0]  # highest power first
    for p in roots:
        nxt = coeffs + [0.0]
        for i, c in enumerate(coeffs):
            nxt[i + 1] += p * c
        coeffs = nxt
    return list(reversed(coeffs[1:]))


def _companion(n: int, roots: list[float]) -> str:
    rows = []
    for i in range(n - 1):
        rows.append(" ".join("1" if j == i + 1 else "0" for j in range(n)))
    rows.append(" ".join(_num(-c) for c in _poly_from_roots(roots)))
    return " ; ".join(rows)


# -- stock_va ---------------------------------------------------------------
# The paper's headline experiment exactly as users run it: one 40k-step
# faulty_with_va run of `ftcsim emit-default`. Integration and the 16.5 MB
# trace dominate, and a batched engine has nothing to batch here. The seed
# does not change this input.

def prepare_stock_va(seed: int, work: Path, emit_default) -> Prepared:
    path = work / "stock.scn"
    emit_default(path)
    out = work / "out"
    run = ScenarioRun(path, out, "faulty_with_va", n=3, l=1, steps=40000)
    return Prepared(files=[path], calls=[["run", str(path), "-o", str(out)]],
                    runs=[run])


# -- mc_pairs ---------------------------------------------------------------
# Batch throughput: seeded Monte Carlo fault draws, each simulated with and
# without the virtual actuator, in one `ftcsim run f1 ... fN` call. Fixed
# per-scenario costs (load, gains, four charts) weigh more here, and the two
# modes use the right-hand side differently.

MC_DRAWS = 8
MC_T_END = 2.0

_MC_TEMPLATE = """\
[system]
n = 3
A = 0 1 0 ; 0 0 1 ; -1 -2 -3
b = 0 ; 0 ; 1
C = 1 1 1

[nonlinearity]
f = 0.05*sin(x3)
g = 0.5*sin(t)+4

[reference]
A_d = 0 1 0 ; 0 0 1 ; -1 -2 -4
B_d = 0 ; 0 ; 1
r = step(t)

[disturbance_channel]
mode = matched
scale = 0.5

[adaptation]
gamma1 = {gamma1}
gamma2 = {gamma2}
gamma3 = {gamma3}
P = 2.8 2.6 0.5 ; 2.6 7.1 1.8 ; 0.5 1.8 1.1
theta_design = 0.5
d_tilde_max = 2.5
d_dot_max = 1

[faults]
at = {t_loss} kind = loss theta = {theta}
at = {t_dist} kind = disturbance signal = {dist}
at = {t_add} kind = additive signal = {amp}*sin({freq}*t)

[run]
t_end = {t_end}
h = {h}
mode = {mode}
x0_hat = 0 0 0
x0_d = 0 0 0
eps_band = 0.05
"""


def mc_pairs_texts(seed: int) -> list[tuple[str, str, str]]:
    """(file stem, mode, scenario text) for every draw, both modes each."""
    rng = random.Random(f"mc_pairs:{seed}")
    out = []
    for i in range(MC_DRAWS):
        scale = rng.uniform(0.5, 2.0)
        fields = dict(
            gamma1=_num(20 * scale), gamma2=_num(200 * scale),
            gamma3=_num(1000 * scale),
            theta=_num(rng.uniform(0.55, 0.95)),
            t_loss=_grid_time(rng, 0.3, 0.6),
            t_dist=_grid_time(rng, 0.7, 1.0),
            dist=_num(rng.uniform(0.5, 1.5)),
            t_add=_grid_time(rng, 1.1, 1.4),
            amp=_num(rng.uniform(0.2, 0.8)),
            freq=_num(rng.uniform(1.0, 4.0)),
            t_end=_num(MC_T_END), h=_num(H))
        for mode, tag in (("faulty_no_va", "no_va"),
                          ("faulty_with_va", "with_va")):
            out.append((f"d{i:02d}_{tag}", mode,
                        _MC_TEMPLATE.format(mode=mode, **fields)))
    return out


def prepare_mc_pairs(seed: int, work: Path, emit_default) -> Prepared:
    out = work / "out"
    files, runs = [], []
    steps = round(MC_T_END / H)
    for stem, mode, text in mc_pairs_texts(seed):
        path = work / f"{stem}.scn"
        path.write_text(text, encoding="utf-8")
        files.append(path)
        runs.append(ScenarioRun(path, out / stem, mode, n=3, l=1, steps=steps))
    call = ["run", *map(str, files), "-o", str(out)]
    return Prepared(files=files, calls=[call], runs=runs)


# -- wide_nl ----------------------------------------------------------------
# Expression-heavy, wider system: a seeded n = 5 chain with two outputs, a
# constant disturbance column and P = auto, run and then verified. Only the
# coefficients vary with the seed, so every seed costs the same. It is the
# only workload through Lyapunov synthesis and `verify`, and it exposes
# changes that help n = 3 but slow larger or expression-heavy systems.

WIDE_N = 5
WIDE_T_END = 6.0

_WIDE_TEMPLATE = """\
[system]
n = 5
A = {A}
b = 0 ; 0 ; 0 ; 0 ; 1
C = 1 {c1} 0 0 0 ; 0 0 1 {c2} 0

[nonlinearity]
f = {k1}*sin(x1)/(1+x2^2) + {k2}*(sqrt(1+x3^2)-1) - {k3}*log(1+x4^2) + {k4}*min(max(x5,-1),1) + {k5}*sign(x1)*abs(x2)^1.5*exp(-x3^2)
g = 3 + {k6}*exp(-x1^2) + {k7}*step(x2)

[reference]
A_d = {A_d}
B_d = 0 ; 0 ; 0 ; 0 ; {kr}
r = step(t-0.5)*(1 + {ra}*sin({rw}*t))

[disturbance_channel]
mode = constant
E = {E}

[adaptation]
gamma1 = {gamma1}
gamma2 = {gamma2}
gamma3 = {gamma3}
P = auto
theta_design = 0.5
d_tilde_max = 1
d_dot_max = 1

[faults]
at = {t_loss} kind = loss theta = {theta}
at = {t_dist} kind = disturbance signal = {dist}*min(1, max(0, t-{t_dist}))
at = {t_add} kind = additive signal = {amp}*sin({freq}*t)/(2+cos(t))

[run]
t_end = {t_end}
h = {h}
mode = faulty_with_va
x0_hat = 0 0 0 0 0
x0_d = 0 0 0 0 0
eps_band = 0.1
"""


def wide_nl_text(seed: int) -> str:
    rng = random.Random(f"wide_nl:{seed}")
    u = rng.uniform
    plant_roots = [u(0.8, 2.0) for _ in range(WIDE_N)]
    ref_roots = [u(1.5, 3.0) for _ in range(WIDE_N)]
    kr = _poly_from_roots(ref_roots)[0]
    return _WIDE_TEMPLATE.format(
        A=_companion(WIDE_N, plant_roots), A_d=_companion(WIDE_N, ref_roots),
        c1=_num(u(0.2, 0.8)), c2=_num(u(0.2, 0.8)),
        k1=_num(u(0.05, 0.2)), k2=_num(u(0.05, 0.2)), k3=_num(u(0.05, 0.2)),
        k4=_num(u(0.05, 0.2)), k5=_num(u(0.05, 0.2)),
        k6=_num(u(0.2, 0.8)), k7=_num(u(0.2, 0.8)),
        kr=_num(kr), ra=_num(u(0.1, 0.3)), rw=_num(u(0.5, 2.0)),
        E=" ; ".join(_num(u(0.0, 0.2)) for _ in range(WIDE_N - 1))
          + f" ; {_num(u(0.5, 1.0))}",
        gamma1=_num(u(10, 30)), gamma2=_num(u(100, 300)),
        gamma3=_num(u(500, 1500)),
        theta=_num(u(0.55, 0.95)),
        t_loss=_grid_time(rng, 1.0, 1.5), t_dist=_grid_time(rng, 2.0, 2.5),
        dist=_num(u(0.2, 0.6)), t_add=_grid_time(rng, 3.0, 3.5),
        amp=_num(u(0.2, 0.6)), freq=_num(u(1.0, 3.0)),
        t_end=_num(WIDE_T_END), h=_num(H))


def prepare_wide_nl(seed: int, work: Path, emit_default) -> Prepared:
    path = work / "wide.scn"
    path.write_text(wide_nl_text(seed), encoding="utf-8")
    out = work / "out"
    run = ScenarioRun(path, out / "run", "faulty_with_va", n=WIDE_N, l=2,
                      steps=round(WIDE_T_END / H))
    ver = VerifyRun(path, out / "verify")
    calls = [["run", str(path), "-o", str(run.out_dir)],
             ["verify", str(path), "-o", str(ver.out_dir)]]
    return Prepared(files=[path], calls=calls, runs=[run], verifies=[ver])


WORKLOADS = {
    "stock_va": prepare_stock_va,
    "mc_pairs": prepare_mc_pairs,
    "wide_nl": prepare_wide_nl,
}
