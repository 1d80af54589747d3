"""One in-process pass over a workload: ``rdasim.cli.main`` per command.

Run as a fresh interpreter from the repository root:

    PYTHONPATH=src python bench/inproc.py RESULT.json [--trace] -- CMD_ARGS_JSON

where CMD_ARGS_JSON is a JSON list of CLI argument lists.  It imports
``rdasim.cli``, calls ``main`` for each command in order and writes the
pass wall time, the exit codes and, with ``--trace``, every span and counter
to RESULT.json once the pass has ended.  The spans of one command share its
index as run id.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    result_path = Path(argv[0])
    traced = "--trace" in argv[1:argv.index("--")]
    command_lists = json.loads(argv[argv.index("--") + 1])

    started = time.perf_counter()
    tracer = None
    if traced:
        from tracing import ROOT_SPAN, Tracer, install

        tracer = Tracer()
        root = tracer.open(ROOT_SPAN)
        span = tracer.open("cli.import")
    import rdasim.cli

    if tracer is not None:
        tracer.close(span)
        install(tracer)
    codes = []
    for run_id, args in enumerate(command_lists):
        if tracer is not None:
            tracer.run_id = run_id
            span = tracer.open("cli.main")
        codes.append(rdasim.cli.main(args))
        if tracer is not None:
            tracer.close(span)
    if tracer is not None:
        tracer.close(root)
    wall = time.perf_counter() - started

    payload = {"wall_s": wall, "exit_codes": codes}
    if tracer is not None:
        payload["spans"] = tracer.spans
        payload["counters"] = tracer.counters
    result_path.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
