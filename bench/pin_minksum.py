"""Recompute minksum_pins.json: the sum vertex count of the minksum instance.

    python3 bench/pin_minksum.py

The pin is the reference the benchmark checks `f0_sum` against; it was
written with galeproj at the commit that defined the benchmark.  Do not
rewrite it to make a changed program pass.
"""

from __future__ import annotations

import json

import workloads


def main() -> None:
    workloads.load_galeproj_cli()
    from galeproj.polytopes import VPolytope, minkowski_sum_vertices

    summands = [VPolytope(points) for points in workloads.minksum_instance(workloads.MINKSUM_INSTANCE)]
    f0_sum = len(minkowski_sum_vertices(summands))
    workloads.PINS_PATH.write_text(json.dumps({"instance": workloads.MINKSUM_INSTANCE, "f0_sum": f0_sum}) + "\n")


if __name__ == "__main__":
    main()
