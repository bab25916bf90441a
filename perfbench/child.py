"""One workload iteration in a fresh interpreter.

    python3 child.py RESULT_JSON RSFT_DIR TRACE RUN_ID SUBCOMMAND=CONFIG...

Set-up ends once rsft is imported and every config is parsed; the
timestamp is CLOCK_MONOTONIC so the parent can subtract its spawn time.
Then each subcommand runs through `rsft.cli.main`, after the previous one
has returned.  With TRACE = 1 the spans are saved next to RESULT_JSON.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv) -> int:
    result_path, rsft_dir, trace, run_id, *ops = argv
    ops = [op.split("=", 1) for op in ops]

    import rsft.cli
    from rsft.config import parse_config

    parse_start = time.perf_counter()
    configs = []
    for _subcommand, config_path in ops:
        with open(config_path, encoding="utf-8") as handle:
            configs.append(parse_config(handle.read()))
    parse_s = time.perf_counter() - parse_start
    ready = _now()

    imported_from = os.path.dirname(os.path.realpath(rsft.cli.__file__))
    if imported_from != os.path.realpath(rsft_dir):
        raise SystemExit(f"rsft imported from {imported_from}, expected {rsft_dir}")

    tracer = None
    if trace == "1":
        from tracing import Tracer, install

        tracer = Tracer(run_id)
        install(tracer)
        tracer.count("config.setup_parse_s", parse_s)

    records = []
    start = _now()
    for (subcommand, config_path), cfg in zip(ops, configs):
        out, err = io.StringIO(), io.StringIO()
        record = {"subcommand": subcommand, "config": config_path, "rc": None, "exception": None}
        span = tracer.open("cli.main") if tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                record["rc"] = rsft.cli.main([subcommand, "--config", config_path])
        except SystemExit as exit_:
            record["rc"] = exit_.code
        except Exception:
            record["exception"] = traceback.format_exc()
        finally:
            if tracer:
                tracer.close(span)
                tracer.settle_flushes(cfg.resolved_batch_len)
        record["stdout"], record["stderr"] = out.getvalue(), err.getvalue()
        records.append(record)
    done = _now()

    if tracer:
        tracer.save(os.path.splitext(result_path)[0] + ".spans.npz")
    result = {
        "ready": ready,
        "wall_s": done - start,
        "parse_s": parse_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "grid": [configs[0].grid_t_points, configs[0].site_count],
        "ops": records,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
