"""What the fault schedule does to the loop when nobody intervenes.

The faulty plant receives the unmodified nominal input. After the 35%
loss of actuator effectiveness at t = 15 s, the matched disturbance step
at 20 s and the persistent additive fault at 25 s, the output deviates
from the desired trajectory and never comes back.
"""

import dataclasses
import pathlib

import numpy as np

import ftcsim as F
from ftcsim import scenario_io, svgplot

out_dir = pathlib.Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

s = scenario_io.loads(scenario_io.default_scenario_text()).scenario
s = dataclasses.replace(s, mode="faulty_no_va")

print("fault schedule:")
for ev in s.schedule.events:
    print("  ", ev)

tr = F.run(s)
m = F.metrics(tr, s)

dev = np.abs(tr.y_f[:, 0] - tr.y_d[:, 0])
print(f"\npre-fault deviation sup |y_f - y_d| (t < 15): "
      f"{dev[tr.t < 15.0].max():.2e}")
print(f"post-fault deviation sup over [16, 40]:        "
      f"{dev[(tr.t >= 16.0)].max():.4f}")
for ev in m.events:
    rec = "never recovers" if ev.recovery_time is None else f"{ev.recovery_time:.2f}s"
    print(f"  event t={ev.at:>4.0f}s ({ev.kind:<11s}) peak={ev.peak:.4f}  {rec}")

svgplot.write_chart(
    out_dir / "no_reconfiguration.svg", tr.t,
    [("desired output", tr.y_d[:, 0]), ("faulty output", tr.y_f[:, 0])],
    "Faulty loop without reconfiguration", y_label="y")
print(f"\nwrote {out_dir / 'no_reconfiguration.svg'}")
