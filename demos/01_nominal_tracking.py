"""Nominal loop: the feedback-linearized plant tracks the reference model.

Builds the stock three-state system from the library API, synthesizes the
model-matching gains, and runs the healthy closed loop under a unit-step
reference. With exact matching the tracking error e = x_hat - x_d obeys
e' = A_d e, so starting from e(0) = 0 it stays at numerical zero.
"""

import pathlib

import numpy as np

import ftcsim as F
from ftcsim import scenario_io, svgplot

out_dir = pathlib.Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

# The stock scenario ships with the package; parse it instead of
# rebuilding the matrices by hand.
loaded = scenario_io.loads(scenario_io.default_scenario_text())
s = loaded.scenario

gains = F.synthesize_gains(s.core.A, s.core.b, s.ref.A_d, s.ref.B_d)
print("model-matching gains")
print("  k_x =", gains.k_x, " k_r =", gains.k_r)
print("  residuals:", gains.residual_A, gains.residual_B)

import dataclasses
nominal = dataclasses.replace(s, mode="nominal_only")
tr = F.run(nominal)

e_norm = np.linalg.norm(tr.e, axis=1)
print(f"\nrows: {len(tr.t)}  (t_end={s.t_end}, h={s.h})")
print(f"||e|| at t=10: {e_norm[tr.t >= 10.0][0]:.3e}")
print(f"sup ||e|| over the whole run: {e_norm.max():.3e}")
print("the output settles at the reference model's DC value "
      f"y = {tr.y_d[-1, 0]:.4f}")

svgplot.write_chart(
    out_dir / "nominal_tracking.svg", tr.t,
    [("desired output", tr.y_d[:, 0]), ("nominal output", tr.y_hat[:, 0])],
    "Healthy loop under a unit step", y_label="y")
print(f"\nwrote {out_dir / 'nominal_tracking.svg'}")
