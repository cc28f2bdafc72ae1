"""One benchmark round of one workload, in a fresh Python process.

run.py starts it from the root of a kkstab checkout:

    python3 kkbench/worker.py --workload NAME --seed N --workdir DIR \
        --spawned-at T [--trace SPANS.json] [--setup-only]

T is the parent's time.monotonic() just before the start, so setup_s
counts interpreter start-up and imports up to the first call into kkstab.
The worker prints one JSON object: setup_s, import_s, and unless
--setup-only, wall_s, peak_rss_mb, the checks, and with --trace the
per-layer metrics (the spans go to SPANS.json).  Outputs go to DIR, which
the caller deletes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    start_import = time.monotonic()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads  # kkstab (every module, through kkstab.cli), NumPy, SciPy
    import_s = time.monotonic() - start_import
    if args.setup_only:
        print(json.dumps({"setup_s": time.monotonic() - args.spawned_at,
                          "import_s": import_s}))
        return 0

    tracer = None
    if args.trace:
        import layers
        import spans
        tracer = spans.Tracer()
        layers.install(tracer)
    run, check = workloads.WORKLOADS[args.workload]
    amp = workloads.amplitude(args.workload, args.seed)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    setup_s = time.monotonic() - args.spawned_at
    start = time.perf_counter()
    out = run(amp, tracer.call if tracer else _call, workdir)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    written = sum(f.stat().st_size for f in workdir.rglob("*") if f.is_file())
    checks = check(out, amp)

    result = {"setup_s": setup_s, "import_s": import_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "amplitude": amp,
              "checks": [vars(c) for c in checks]}
    if tracer is not None:
        tracer.counters["cli.bytes_written"] += written
        metrics = layers.layer_metrics(tracer)
        metrics["setup.import_s"] = (import_s, "s")
        result["layers"] = metrics
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


def _call(name, fn, /, *args, **kwargs):
    return fn(*args, **kwargs)


if __name__ == "__main__":
    sys.exit(main())
