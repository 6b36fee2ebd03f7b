"""Bootstrap for a traced fresh-process CLI call: install the tracer, run phasegas.cli.main.

    python3 perfbench/child.py --spans PATH --parent ID --op ID -- <phasegas CLI arguments>

The spans are written to PATH when the call ends, for the parent to merge.
Untraced calls do not come through here; they run ``python -m phasegas.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys

import envinfo

envinfo.pin_threads()

import gate  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--op", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = tracing.Tracer(prefix=f"{args.op}/", root=args.parent)
    tracer.op = args.op
    code = 1
    try:
        from phasegas import cli

        tracer.install()
        with tracer.span(f"cli.{argv[-1]}", "cli") as span:
            code = cli.main(argv)
        span.attrs["bytes"] = gate.bytes_written(argv[argv.index("--out") + 1])
    finally:
        tracer.uninstall()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracing.spans_to_json(tracer.spans), "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
