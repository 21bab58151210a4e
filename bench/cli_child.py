"""Run ``vps`` once under the tracer: ``python3 bench/cli_child.py <vps args>``.

Used by the traced cli-cold run in place of ``python -m vetopersuasion.cli``.
The import is timed as one span, the tracer is installed, ``cli.main`` runs,
and the reduced trace is printed on stderr as one line starting with
``BENCH-SPANS `` before the process exits with main's exit code.
"""

import json
import sys
import time

t0 = time.perf_counter()
import vetopersuasion.cli as cli  # noqa: E402  (the import is what is timed)

import_s = time.perf_counter() - t0

import spans  # noqa: E402

tracer = spans.Tracer()
spans.install(tracer)
code = 1
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse exits on bad usage
    code = exc.code if isinstance(exc.code, int) else 2
finally:
    summary = tracer.summary()
    summary.add(spans.Summary({"import.package": 1}, {"import.package": import_s},
                              roots_s=import_s))
    sys.stderr.write(spans.MARKER + json.dumps(summary.to_json()) + "\n")
sys.exit(code)
