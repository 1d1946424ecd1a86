"""Run the blockfer command line with every layer traced.

Usage: python3 launch.py OUT.json ARGS...

Installs the span wrappers, calls blockfer.cli.main(ARGS), then writes the
process's span summary to OUT.json and its kept spans to OUT.spans, and
exits with main's exit code.
"""

import json
import sys

from common import use_sources


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    use_sources()
    import spans
    from blockfer import cli

    tracer = spans.Tracer()
    spans.install(tracer)
    code = cli.main(argv)
    tracer.finish()
    with open(out, "w") as handle:
        json.dump(tracer.summary(), handle)
    tracer.dump(out.removesuffix(".json") + ".spans")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
