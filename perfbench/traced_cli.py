"""Run one vaikit command with spans around its public calls.

    python3 perfbench/traced_cli.py SPANS_OUT <vaikit arguments>

Stdout and the exit code are the command's own.  The spans (one
``cli.import`` root for importing the CLI, then everything under
``cli.main``) go to SPANS_OUT as a JSON list.
"""

import json
import sys

from spans import Tracer, instrumented


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import vaikit.cli
    with instrumented(tracer):
        code = vaikit.cli.main(argv)
    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump(tracer.take(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
