#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tvgeo pipeline.

    python3 bench/run.py --workload planted-local --seed 17 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from its
src/ directory. Each run drives the real CLI stages in-process through
``tvgeo.cli.main`` on inputs generated from ``--seed``, repeating the
workload's stages back to back (a closed loop with one client) while another
pass fits in ``--seconds`` (at least once), and checks every stage's outputs.
Timings are medians over the passes.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs the stages once with the package's public functions wrapped from
outside (tracing.py), replays the main stages untraced, runs the kernel
probes (probes.py) and prints the per-layer metrics. Every metric is printed
as ``name value unit``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(environment, input sizes, per-operation times, spans) is written to
``.bench_results/<workload>-seed<seed>-trace<n>.json``.

Workloads (BENCHMARK.json says why each exists; workloads.py builds them):

- planted-local: ``synth -> infer (gamma 100, 5 rounds, threads = nproc) ->
  eval --cities`` on the committed acceptance benchmark config.
- hub-worldwide: ``infer --gamma inf --threads 1 -> eval --cities`` on a
  smaller planted graph plus hub users with worldwide ties.
- seed-ingest: ``ingest -> seed`` on a generated mention stream, GPS events,
  profile claims and a gazetteer, with outputs known by construction.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("planted-local", "hub-worldwide", "seed-ingest")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for a smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "tvgeo" / "__init__.py").is_file():
        print(f"error: no tvgeo sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.scale == "tiny")


if __name__ == "__main__":
    sys.exit(main())
