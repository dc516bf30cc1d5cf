"""Launch ``repro serve`` for the service-sessions workload.

Usage::

    python3 perfbench/serve.py [--spans FILE] -- serve --port 0 ...

With ``--spans`` the span wrappers are installed before the server
starts, and the spans are written to FILE when it stops (SIGTERM).
Without it the server runs exactly as ``repro serve`` would.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    recorder = None
    if spans_path is not None:
        import spans as tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    from repro.cli import main as repro_main

    code = repro_main(argv)
    if recorder is not None:
        recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
