"""The service under the tracer: ``repro serve --port 0 --procs 1`` with
the layer wrappers installed before it serves.  The span aggregates are
written to ``--trace-out`` once the server has drained (SIGTERM).

    python3 perfbench/serve_traced.py --state-dir DIR --trace-out FILE
"""

import argparse
import json

import common
import layers
from spans import Tracer, install


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()
    common.require_checkout()
    from repro.service.server import run_server

    tracer = Tracer()
    install(tracer, layers.targets(server=True))
    tracer.start()
    code = run_server(state_dir=args.state_dir, port=0, procs=1)
    tracer.stop()
    with open(args.trace_out, "w") as handle:
        json.dump(tracer.to_json(), handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
