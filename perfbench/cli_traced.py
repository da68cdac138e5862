"""Run one gbeq CLI call with the tracer installed.

    python cli_traced.py SPANS_FILE ITEM_ID ARG...

behaves like `python -m gbeq ARG...` (same exit status, same output)
and writes the call's spans to SPANS_FILE and its counters to
SPANS_FILE.counters.json, even when the call raises.
"""

import json
import sys

import gbeq.cli

from tracer import Tracer


def main() -> None:
    spans_path, item_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.item = item_id
    try:
        sys.exit(gbeq.cli.main(argv))
    finally:
        tracer.write(spans_path)
        with open(spans_path + ".counters.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.counters(), fh)


if __name__ == "__main__":
    main()
