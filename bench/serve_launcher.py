"""Start ``repro serve`` for the serve_mixed workload.

    python bench/serve_launcher.py [--trace-dir DIR] serve --port 0 ...

Everything after the launcher's own options goes to
``repro.cli.main``.  With ``--trace-dir`` the layer wrappers of
`tracing.Tracer` are installed first, and the server appends its spans
to ``DIR/<pid>.jsonl`` as each outermost span finishes.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if argv[:1] == ["--trace-dir"]:
        from tracing import remote_tracer

        remote_tracer(Path(argv[1]))
        argv = argv[2:]
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
