"""Traced stand-in for ``python -m psdorder.cli``, used by traced cli-audit runs.

Runs the real ``psdorder.cli.main`` with the same arguments and the same
stdout under the benchmark's `Tracer`, and writes one JSON line to stderr:
the seconds spent importing the CLI, loading input files, deciding (the
command handler, which also assembles the report) and serializing (from the
handler's return until stdout is flushed), plus the tracer's raw counts.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    t0 = perf_counter()
    import psdorder.cli as cli

    times = {"import_s": perf_counter() - t0, "load_s": 0.0, "decide_s": 0.0}
    tracer = Tracer("psdorder", cli.ToleranceBreakdownError)
    tracer.install()
    decided = []

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                times[key] += end - start
                if key == "decide_s":
                    decided.append(end)

        return wrapper

    cli.load_matrix_file = timed(cli.load_matrix_file, "load_s")
    cli.load_vector_file = timed(cli.load_vector_file, "load_s")
    # The table holds the handlers themselves; route them through their traced bindings.
    cli.HANDLERS = {
        name: (timed(getattr(cli, entry[0].__name__, entry[0]), "decide_s"),) + tuple(entry[1:])
        for name, entry in cli.HANDLERS.items()
    }
    start = perf_counter()
    tracer.begin_op()
    rc = cli.main(sys.argv[1:])
    sys.stdout.flush()
    end = perf_counter()
    tracer.end_op(end - start)
    times["serialize_s"] = end - decided[-1] if decided else 0.0
    times["trace"] = tracer.state()
    sys.stderr.write(json.dumps(times) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
