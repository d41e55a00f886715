"""Run one masseybrauer CLI command in this process, as a user's shell would.

    python3 perfbench/cli_child.py [--trace-out FILE] <cli arguments>

With --trace-out the tracer's wrappers are installed first, and the span
aggregates and spans are written to FILE as JSON when the command ends.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] != ["--trace-out"]:
        from masseybrauer import cli

        return cli.run(argv)
    out, argv = argv[1], argv[2:]
    import tracer
    from masseybrauer import cli

    tr = tracer.Tracer()
    tracer.install(tr)
    tr.timed = True
    code = cli.run(argv)
    tr.timed = False
    with open(out, "w") as fh:
        json.dump(dict(tr.aggregates(), spans=tr.span_columns()), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
