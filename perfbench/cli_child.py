"""Run one ``sparsecert`` CLI command with every layer traced.

Usage: python3 perfbench/cli_child.py SPANS_JSON CLI_ARGS...

Behaves like ``python -m sparsecert.cli CLI_ARGS...`` (same output and exit
code) and writes the spans and counts it recorded to SPANS_JSON.
"""

import json
import sys
from pathlib import Path

import sparsecert.cli

import tracing


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        status = sparsecert.cli.main(cli_args)
    Path(spans_path).write_text(json.dumps({"spans": tracer.spans,
                                            "counts": tracer.counts}))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
