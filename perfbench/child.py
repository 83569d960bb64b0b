"""Run CLI commands in this fresh process through dirichlet_fem.cli.main.

Usage: python3 child.py JOB.json RESULT.json

JOB.json holds {"commands": [[arg, ...], ...], "trace": bool}.  Each
command runs in turn, one at a time, with stdout and stderr captured;
RESULT.json receives per command the exit code, its start on the
system-wide monotonic clock, the in-process time and the captured
text, plus the tracer summary when tracing.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter


def main(job_path: str, result_path: str) -> None:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    from dirichlet_fem import cli

    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    results = []
    for argv in job["commands"]:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # report the crash as this command's failure
                traceback.print_exc()
                code = -1
        seconds = perf_counter() - start
        results.append(
            {"code": code, "start": start, "seconds": seconds,
             "stdout": out.getvalue(), "stderr": err.getvalue()}
        )
    summary = {"commands": results}
    if tracer is not None:
        summary["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
