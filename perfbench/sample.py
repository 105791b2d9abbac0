"""One benchmark sample: ``hopfreal report`` on one document, in this process.

Run with ``src`` on the import path; ``run.py`` starts one fresh process
per sample, pinned to one CPU beside a pace process (``pace.py``).  Times
are CPU seconds of this process, so the pace's share of the CPU is not
counted, each with the monotonic-clock window it ran in.  The last stdout
line is a JSON object with the CLI exit code, the stage statuses, the
report's SHA-256, set-up, report and per-stage times, and the peak resident
memory.  With ``--spans PATH`` the layers are traced as well and the spans
are written to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import time


class StageTimer:
    """Times the stage entries the pipeline dispatches through."""

    def __init__(self, stages: dict):
        self.stages = stages
        self.original = dict(stages)
        self.seconds = {}
        self.windows = {}
        self.status = {}
        self.first_start = None  # (CPU seconds, monotonic ns)
        for name, fn in self.original.items():
            stages[name] = self._timed(name, fn)

    def _timed(self, name, fn):
        def stage(pipe):
            t0, w0 = time.process_time(), time.monotonic_ns()
            if self.first_start is None:
                self.first_start = (t0, w0)
            try:
                result = fn(pipe)
            finally:
                self.seconds[name] = time.process_time() - t0
                self.windows[name] = (w0, time.monotonic_ns())
            self.status[name] = result.status
            return result
        return stage

    def restore(self):
        self.stages.update(self.original)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark sample")
    parser.add_argument("--input", required=True)
    parser.add_argument("--spans", default=None, help="trace the layers; write spans here")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--cpu", type=int, default=None, help="pin to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    t0, w0 = time.process_time(), time.monotonic_ns()
    from hopfreal import cli, pipeline
    import_s = time.process_time() - t0

    tracer = None
    if args.spans:
        import tracer as tracing  # beside this script, so on sys.path
        before = tracing.bindings()
        tracer = tracing.Tracer(args.run_id)
    timer = StageTimer(pipeline._Pipeline.STAGES)
    if tracer is not None:
        tracer.install()
    out = io.StringIO()
    try:
        t_main = time.process_time()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["report", "--input", args.input])
        t_end, w_end = time.process_time(), time.monotonic_ns()
    finally:
        if tracer is not None:
            tracer.uninstall()
        timer.restore()

    text = out.getvalue()
    first, w_first = timer.first_start or (t_end, w_end)
    result = {
        "rc": rc,
        "status": timer.status,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "setup_s": import_s + (first - t_main),
        "report_s": t_end - first,
        "stage_s": timer.seconds,
        "windows": {"setup_s": (w0, w_first), "report_s": (w_first, w_end),
                    **timer.windows},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["restored"] = tracing.same_bindings(before, tracing.bindings())
        result["layers"] = tracer.metrics()
        result["layer_self_s"] = tracer.layer_self_s()
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
