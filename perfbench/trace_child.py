"""Run one `ftcsim` command in this process with its layers traced.

Usage: python3 trace_child.py SPANS_JSON RUN_ID -- FTCSIM_ARGS...

Imports ftcsim (timed as the `import` span), installs the wrappers from
tracer.py, runs `ftcsim.cli.main` inside a `cli.main` span, writes the
spans to SPANS_JSON and exits with the command's exit code.
"""

from __future__ import annotations

import sys

from tracer import Tracer, install


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *ftcsim_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_JSON RUN_ID -- ARGS...")
    tracer = Tracer(run_id)
    start = tracer.clock()
    from ftcsim import (cli, controller, engine, exprlang, numerics,
                        scenario_io, svgplot, verify)
    tracer.record("import", start, tracer.clock())
    install(tracer, {"cli": cli, "controller": controller, "engine": engine,
                     "exprlang": exprlang, "numerics": numerics,
                     "scenario_io": scenario_io, "svgplot": svgplot,
                     "verify": verify})
    frame = tracer.open("cli.main")
    try:
        code = cli.main(ftcsim_args)
    finally:
        tracer.close(frame)
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
