"""A traced `python -m qiglab` for cold-start's traced launches.

    python3 bench/traced_child.py COMMAND [OPTIONS...]

Imports qiglab untraced, runs the CLI with the tracer's wrappers in place and
writes the spans as one JSON line to stderr after the records on stdout.
"""

import json
import sys

import qiglab.cli

from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.op_id = 0
    try:
        with tracer.patched():
            code = qiglab.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(json.dumps(tracer.child_dump()) + "\n")
    sys.exit(code)
