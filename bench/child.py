"""One benchmark repetition in a fresh interpreter.

Usage: python3 child.py SPEC.json

SPEC holds the config path, the CLI argument lists, a run id, whether to
trace, and where to write the result.  The child times its set-up (import
of tiltedsums.cli plus one parse of the config), then runs each CLI call
through tiltedsums.cli.main with standard output captured, and writes
timings, exit codes, captured output, peak resident memory and, when
tracing, the per-layer metrics and spans as JSON.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import tiltedsums.cli as cli
    t1 = time.perf_counter()

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(spec["run_id"])
        tracer.install()
        run_main = tracer.wrap("cli.main", cli.main)
    else:
        run_main = cli.main
    t2 = time.perf_counter()
    cli.parse_config_file(spec["config"])
    t3 = time.perf_counter()

    calls = []
    for argv in spec["calls"]:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run_main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        calls.append({"argv": argv, "code": code, "stdout": out.getvalue()})
    t4 = time.perf_counter()

    result = {
        "module": cli.__file__,
        "import_s": t1 - t0,
        "setup_s": (t1 - t0) + (t3 - t2),
        "wall_s": t4 - t3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
    }
    if tracer is not None:
        recorded = tracer.spans()
        result["layers"] = spans.layer_metrics(recorded)
        result["spans"] = recorded
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
