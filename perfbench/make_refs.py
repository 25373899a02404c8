"""Regenerate ``refs.json``, the stored outputs the benchmark checks against.

    python3 perfbench/make_refs.py

Run from the root of a source checkout, and only when the program's intended
outputs change. The references are digests (shape, mean, values at fixed
points, clipped fractions) of the network probe, of one reference-size fusion
per fuse workload, and the loss trace of a reference first training chunk.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import OUT, SRC, pin_blas_threads


def main() -> int:
    pin_blas_threads()
    sys.path.insert(0, SRC)
    import workloads

    workdir = os.path.join(OUT, "make-refs")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        params = workloads.make_params()
        refs = {"probe": {t: workloads.digest(out, workloads.PROBE_POINTS)
                          for t, out in workloads.probe(params).items()}}
        for name, factory in workloads.WORKLOADS.items():
            bench = factory(0, workdir)
            if isinstance(bench, workloads.FuseBench):
                fused = bench.reference_outputs(params)["fused"]
                refs[name] = {"fused": workloads.digest(fused, workloads.FUSE_POINTS, clipped=True)}
            else:
                refs[name] = bench.reference_outputs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
