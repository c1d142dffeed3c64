"""One measured pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode MODE
        [--size full|tiny] [--spawned-at NS] [--spans-out PATH]

MODE is ``setup`` (build the inputs, then stop), ``plain`` (untraced),
``spans`` (SpanTracer) or ``counts`` (ScalarCounter). fuselab is imported
from the ``src`` directory next to this one, never from anywhere else, so
the lru caches start empty as they do in a ``fuselab`` CLI process.
``--spawned-at`` is the parent's ``time.monotonic_ns()`` just before the
spawn; on Linux that clock is shared by all processes, so set-up time
includes interpreter start-up. Prints one JSON object on stdout.

Every worker also times ``reference_work``, a fixed piece of pure-Python
rational arithmetic that does not call fuselab: three times once its inputs
are built, then once more whenever a twentieth of a second of ops has passed
since the last time, and three times after the last op. None of it is
inside a timed op or inside ``setup_s``. The samples go out as
``reference_s``; the parent uses them to gauge the machine's speed (see
run.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_EVERY_S = 0.05  # op time between two reference samples


def reference_work() -> Fraction:
    """About 2 ms of Fraction, tuple and dict work, the kind fuselab does."""
    acc, table = Fraction(0), {}
    for i in range(1, 300):
        q = Fraction(i, i + 7) * Fraction(3, i + 1)
        acc += q - table.get((i % 17, i % 5), 0)
        table[(i % 17, i % 5)] = q
    return acc


def time_reference(n: int) -> list[float]:
    out = []
    for _ in range(n):
        start = time.perf_counter()
        reference_work()
        out.append(time.perf_counter() - start)
    return out


def _import_fuselab():
    if not (SRC / "fuselab" / "__init__.py").is_file():
        raise SystemExit(f"fuselab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fuselab

    if not Path(fuselab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported fuselab from {fuselab.__file__}, not from {SRC}")
    return fuselab


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "plain", "spans", "counts"), required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--spawned-at", type=int, default=None)
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)
    spawned_at = time.monotonic_ns() if args.spawned_at is None else args.spawned_at

    _import_fuselab()
    import mpmath
    import numpy

    import tracer
    import workloads

    ops, stats = workloads.make_ops(args.workload, args.seed, args.size)
    probe = {"spans": tracer.SpanTracer, "counts": tracer.ScalarCounter}.get(args.mode)
    probe = probe() if probe else None
    if probe:
        probe.install()

    first_op = time.monotonic_ns()
    out = {"setup_s": (first_op - spawned_at) / 1e9}
    reference = time_reference(3)
    if args.mode == "setup":
        out["reference_s"] = reference
        print(json.dumps(out))
        return 0

    latencies = []
    statuses: Counter = Counter()
    digest = hashlib.sha256()
    failures = []
    since_reference = 0.0
    for index, op in enumerate(ops):
        if since_reference >= REFERENCE_EVERY_S:
            reference += time_reference(1)
            since_reference = 0.0
        if probe:
            probe.begin_op(index, op.label)
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an op that raises is an outcome the oracle judges
            result, error = None, exc
        latencies.append(time.perf_counter() - start)
        since_reference += latencies[-1]
        if probe:
            probe.end_op()
            probe.paused = True
        status, outcome = op.check(result, error)
        if probe:
            probe.paused = False
        del result, error
        statuses[status] += 1
        digest.update(f"{op.label}|{status}|{outcome}\n".encode())
        if status != workloads.OK and len(failures) < 20:
            failures.append(f"{op.label}: {status}: {outcome}")
    if probe:
        probe.uninstall()
    reference += time_reference(3)

    out.update(
        reference_s=reference,
        wall_s=sum(latencies),
        latencies_ms=[x * 1e3 for x in latencies],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=len(ops),
        statuses=dict(statuses),
        failures=failures,
        outcomes_sha256=digest.hexdigest(),
        labels=[op.label for op in ops],
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__, "mpmath": mpmath.__version__},
    )
    if probe:
        out["layers"] = probe.metrics(stats["parse_bytes"])
    if args.mode == "spans" and args.spans_out:
        probe.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
