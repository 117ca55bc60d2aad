"""Runs one gaussphase CLI command with its layer spans recorded.

    python -X importtime perfbench/cli_child.py SPANS_JSON ARG...

The command's output and exit code are those of ``gaussphase.cli.main``;
the spans and summed result sizes are written to SPANS_JSON.
"""

import json
import sys

from gaussphase import cli

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "sizes": tracer.sizes}, fh)


if __name__ == "__main__":
    sys.exit(main())
