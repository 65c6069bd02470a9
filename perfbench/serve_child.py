"""``repro serve`` with every server layer wrapped, for the traced run.

Usage: ``python perfbench/serve_child.py SPANS.json serve [serve options]``.
The wrappers are installed before the server starts; after the clean
SIGTERM shutdown the recorded spans are written to ``SPANS.json``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import install_server  # noqa: E402
from perfbench.trace import Tracer, write_spans  # noqa: E402
from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    install_server(tracer)
    code = main(sys.argv[2:])
    write_spans(sys.argv[1], tracer.spans)
    sys.exit(code)
