"""Traced cold anonsim process: `python bench/trace_cli.py <anonsim args>`.

Times the imports, wraps anonsim's public functions in spans, runs the
command as `python -m anonsim.cli` would, and writes the span totals as
JSON to the file named by $BENCH_TRACE_OUT.  Exits with the command's
exit code.
"""

import json
import os
import sys

import tracing

if __name__ == "__main__":
    startup = tracing.time_imports()
    tracer = tracing.Tracer()
    tracer.install()
    from anonsim import cli

    try:
        code = cli.main(sys.argv[1:])
    finally:
        with open(os.environ["BENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.snapshot(), startup=startup), fh)
    sys.exit(code)
