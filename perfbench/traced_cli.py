"""``python -m causalq.cli`` with spans: one traced cold item of presets_cold.

Usage: python -X importtime perfbench/traced_cli.py SPANS_JSON RUN_ID CLI_ARGS...

The import of ``causalq.cli`` comes first so ``-X importtime`` sees it whole;
spans are installed afterwards and dumped when the command returns.
"""
import sys

import causalq.cli

from spans import Tracer

if __name__ == "__main__":
    out, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    try:
        code = causalq.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)
    sys.exit(code)
