"""One benchmark job in a fresh process: import `mtower.cli` from the
checkout's `src/`, note the moment it is ready, optionally install the
tracer, run `mt` with the given arguments, and write a small JSON result.
A speed probe (speed.py) runs from the first line to the last.

    python3 perfbench/child.py RESULT.json [--trace] [--ready-only] -- MT_ARGS...
    python3 perfbench/child.py RESULT.json --reference

The result holds `ready` (time.monotonic() when `mtower.cli` had been
imported; the parent compares it with the moment it spawned the process),
`rc` (the `mt` exit code), `speed` (the probe's units per CPU second after
`ready`, or null) and, with --trace, the spans.  With --reference the child
imports speed.REFERENCE_IMPORTS instead of mtower, and only notes `ready`.
"""

import importlib
import sys
import time
from pathlib import Path

import speed

PROBE = speed.Probe()
PROBE.start()

if "--reference" in sys.argv:
    for name in speed.REFERENCE_IMPORTS:
        importlib.import_module(name)
else:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from mtower import cli

READY = time.monotonic()
PROBE.mark()

import json  # noqa: E402


def main(argv: list[str]) -> int:
    sep = argv.index("--") if "--" in argv else len(argv)
    out, flags, mt_args = Path(argv[0]), argv[1:sep], argv[sep + 1:]
    result: dict = {"ready": READY}
    if not {"--ready-only", "--reference"} & set(flags):
        tracer = None
        if "--trace" in flags:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        result["rc"] = cli.main(mt_args)
        if tracer is not None:
            result["trace"] = tracer.dump()
    result["speed"] = PROBE.stop()
    out.write_text(json.dumps(result))
    return result.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
