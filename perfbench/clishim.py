"""Cold CLI entry point for traced runs.

Imports the CLI exactly as the console script does, installs the span
tracer, runs `main()` and writes the per-span totals to the JSON file named
by PERFBENCH_TRACE_OUT.  The package is imported before the tracer so that
`-X importtime` sees the same import order as an untraced launch.
"""

import json
import os
import sys

from orthopoly import cli  # first import, as in the console script

from spans import Tracer  # noqa: E402  (this directory is sys.path[0])


def _main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main()
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w",
                  encoding="utf-8") as fh:
            json.dump({"self_ms": {k: 1e3 * v
                                   for k, v in tracer.self_s.items()},
                       "calls": tracer.calls,
                       "eval_points": tracer.eval_points,
                       "momentprob_eigensolves":
                           tracer.momentprob_eigensolves}, fh)


if __name__ == "__main__":
    sys.exit(_main())
