"""The adaptive virtual actuator hides the same faults from the controller.

Same plant, same schedule, same nominal controller as demo 02, but the
faulty plant's input now comes from the reconfiguration block

    u_f = M x_tilde + N u - d_hat

whose parameters adapt online. No single parameter needs to find its
"true" value (there is no persistent excitation here); the three of them
jointly absorb whatever the faults inject, with d_hat doing most of the
work against the disturbance step. The output re-enters the 0.05 band
around the desired trajectory after every event, and the state
difference stays far inside its ultimate bound.
"""

import dataclasses
import pathlib

import numpy as np

import ftcsim as F
from ftcsim import scenario_io, svgplot

out_dir = pathlib.Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

s = scenario_io.loads(scenario_io.default_scenario_text()).scenario
assert s.mode == "faulty_with_va"

tr = F.run(s)
m = F.metrics(tr, s)

print("per-event recovery (band 0.05):")
for ev in m.events:
    rec = "never" if ev.recovery_time is None else f"{ev.recovery_time:.3f}s"
    print(f"  t={ev.at:>4.0f}s {ev.kind:<11s} peak={ev.peak:.4f} recovery={rec}")

sel = tr.t >= 30.0
dev = np.abs(tr.y_f[:, 0] - tr.y_d[:, 0])
print(f"RMS deviation over [30, 40]: {np.sqrt(np.mean(dev[sel]**2)):.5f}")
print(f"sup ||x_tilde|| over the tail: {m.sup_xtilde_tail:.2e}")
print(f"ultimate bound: {m.uub_bound:.3f}  satisfied: {m.uub_satisfied}")
print(f"final parameters: M = {np.round(tr.M[-1], 4)}, "
      f"N = {tr.N[-1]:.4f}, d_hat = {tr.d_hat[-1]:.4f}")

svgplot.write_chart(
    out_dir / "fault_hiding_output.svg", tr.t,
    [("desired output", tr.y_d[:, 0]),
     ("faulty output, reconfigured", tr.y_f[:, 0])],
    "Faulty loop behind the adaptive virtual actuator", y_label="y")
svgplot.write_chart(
    out_dir / "adaptive_parameters.svg", tr.t,
    [("M1", tr.M[:, 0]), ("M2", tr.M[:, 1]), ("M3", tr.M[:, 2]),
     ("N", tr.N), ("dhat", tr.d_hat)],
    "Adaptive parameters", y_label="value")
print(f"\nwrote {out_dir / 'fault_hiding_output.svg'}")
print(f"wrote {out_dir / 'adaptive_parameters.svg'}")
