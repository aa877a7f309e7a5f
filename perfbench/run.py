"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oracle-ge64 --seed 0 \\
        --seconds 15 --trace 0

The program is imported from ``src/`` of the checkout.  With
``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer
metric, and a Chrome trace-event file is written beside the result
file under ``.perfbench/``.  The lines before it are a human summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _write_json(path: str, value) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import metrics
    from common import WORK_DIR, Context, Tally, environment
    from gates import load_reference
    from tracing import Tracer
    from wl_campaigns import run_montecarlo, run_pool
    import wl_oracle
    import wl_service

    workloads = {
        "oracle-ge64": wl_oracle.run,
        "campaign-pool": run_pool,
        "montecarlo-vec": run_montecarlo,
        "service-mixed": wl_service.run,
    }
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"workloads: {', '.join(workloads)}", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, WORK_DIR)
    os.makedirs(work_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    tracer = Tracer()
    ctx = Context(root=ROOT, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), work=run_dir, tracer=tracer,
                  reference=load_reference())
    tally = Tally()
    try:
        env = environment(ROOT, run_dir)
        report = workloads[args.workload](ctx, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(work_root, "results", stem + ".json")
    trace_path = os.path.join(work_root, "traces", stem + ".json")
    detail = dict(report.detail, failed_frac=tally.failed_frac)
    _write_json(result_path, {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env, "end_to_end": report.e2e,
        "traced_end_to_end": report.traced_e2e, "detail": detail,
        "per_layer": report.layers, "digests": report.digests,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.reasons, "samples": report.samples,
    })
    if ctx.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        tracer.write_chrome_trace(trace_path)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    units = {m.name: m.unit for m in metrics.END_TO_END + metrics.PER_LAYER}
    units.update(metrics.DETAIL)
    for title, values in (("end-to-end", report.e2e),
                          ("detail", detail),
                          ("traced end-to-end", report.traced_e2e),
                          ("per-layer", report.layers)):
        for name, value in values.items():
            print(f"{title:>17}  {name:<34} {value:>14.6g} {units[name]}")
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    print(f"# result file: {os.path.relpath(result_path, ROOT)}")
    if ctx.trace:
        print(f"# chrome trace: {os.path.relpath(trace_path, ROOT)} "
              f"({len(tracer.spans)} spans kept, {tracer.dropped} dropped)")

    chosen = metrics.PER_LAYER if ctx.trace else metrics.END_TO_END
    values = report.layers if ctx.trace else report.e2e
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics.complete(values, chosen),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
