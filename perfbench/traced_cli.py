"""Run the ffgenus CLI once with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py SUMMARY.json <ffgenus arguments...>

The whole invocation is one request; the span summary goes to SUMMARY.json
and the raw spans to SUMMARY.json.spans.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ffgenus.cli  # noqa: E402
from tracer import SETUP, Tracer  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.request = 0
    try:
        code = ffgenus.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.request = SETUP
        tracer.write(out, 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
