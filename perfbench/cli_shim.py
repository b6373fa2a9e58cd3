"""Traced stand-in for ``python -c "from fifo_stackup.cli import entry; entry()"``.

Used only in the traced run of ``cli_roundtrip``. It imports the CLI, wraps
the functions the CLI calls, runs ``main`` under a ``cli.main`` span and
writes the spans as JSON to the file named by ``PERFBENCH_SPANS``. The
import happens before any span opens: start-up is measured separately.
"""

import json
import os
import sys

from spans import CLI_REFERENCES, INTERNAL_REFERENCES, Tracer


def main() -> int:
    import fifo_stackup.cli as cli

    tracer = Tracer()
    try:
        with tracer.installed(CLI_REFERENCES + INTERNAL_REFERENCES):
            return tracer.wrap("cli.main", cli.main)()
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as out:
            json.dump(tracer.spans, out)


if __name__ == "__main__":
    sys.exit(main())
