"""fuselab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads and metrics are those of ``BENCHMARK.json``; README.md
describes them. Every round is one closed loop with a single client that runs the whole op
list of the workload in a fresh worker interpreter, so fuselab's lru caches
start empty. Rounds repeat, with the same seed, until ``--seconds`` of
measuring have passed.

Times are scaled to a fixed machine speed. The shared VM the benchmark was
made on flips between a fast state and one in which all code runs up to
twice as slow, often within a second, and the share of time spent slow
drifts from minute to minute. So each worker also times
``worker.reference_work``, a fixed piece of pure-Python arithmetic that
does not call fuselab, every twentieth of a second between ops, and every
time the worker measured is multiplied by ``REFERENCE_S`` over the mean of
its reference times. The mean, not the median: an op's time grows with
the share of its time the machine spent slow, and so does the mean.
``REFERENCE_S`` is the reference time in the fast state, so scaled times
read as times in that state. An op's latency is then its median scaled
time over the rounds; its fastest time would read whether one of its few
rounds happened to fall in a fast moment, which spreads far more from run
to run. The unscaled figures are printed in brackets and kept in the
record.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
taken from one untraced, one span-traced and one scalar-counting round.
Earlier lines are a readable summary. Everything the run measured is also
written to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE_S = 0.0019  # worker.reference_work in the fast state of a 2-vCPU Xeon VM
SETUP_SPAWNS = 6  # extra set-up-only workers per run, for a steadier setup_s
RUN_BUDGET_S = 170  # the run must end within 180 s, whatever --seconds says
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class RunFailed(Exception):
    pass


def spawn(args, mode: str, deadline: float, spans_out: Path | None = None) -> dict:
    """One worker process; returns its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{k: "1" for k in PINNED_THREADS})
    # let the first worker cache bytecode, so that set-up imports from it
    # wherever the run starts, as an installed fuselab would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--size", args.size,
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed(f"no time left for a {mode} worker")
    cmd += ["--spawned-at", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_of(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def fingerprint(versions: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    src_lines = sum(
        len(f.read_text(encoding="utf-8").splitlines())
        for f in sorted((ROOT / "src" / "fuselab").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        **versions,
        "commit": commit,
        "src_fuselab_lines": src_lines,
        **{k: "1" for k in PINNED_THREADS},
    }


def speed_factor(result: dict) -> float:
    """Multiplier that scales the times one worker measured to the reference speed."""
    return REFERENCE_S / statistics.fmean(result["reference_s"])


def summarize(passes: list[dict]) -> dict:
    """Outcome totals over passes that ran the same op list."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(n for p in passes for s, n in p["statuses"].items() if s != "ok")
    wrong = sum(p["statuses"].get("fail", 0) for p in passes)
    same = len({(tuple(p["labels"]), p["outcomes_sha256"]) for p in passes}) == 1
    return {
        "attempted": attempted,
        "failed": failed,
        # "gap" ops (the known all-zero-t defect) count as failed, not as wrong
        "correct": wrong == 0 and same,
        "identical_outcomes": same,
        "failures": passes[0]["failures"],
    }


def measure(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    spawns = [spawn(args, "setup", deadline) for _ in range(0 if args.trace else SETUP_SPAWNS)]
    rounds = []
    measure_start = time.monotonic()
    while not rounds or (
        not args.trace and time.monotonic() - measure_start < args.seconds
    ):
        rounds.append(spawn(args, "plain", deadline))
    spawns += rounds
    factors = [speed_factor(r) for r in rounds]

    n = rounds[0]["attempted"]
    raw_per_op = [statistics.median(r["latencies_ms"][i] for r in rounds) for i in range(n)]
    per_op = [
        statistics.median(r["latencies_ms"][i] * f for r, f in zip(rounds, factors))
        for i in range(n)
    ]
    tail, pct = tail_of(per_op)
    e2e = {
        "setup_s": statistics.median(r["setup_s"] * speed_factor(r) for r in spawns),
        "wall_s": sum(per_op) / 1e3,
        "op_p50_ms": statistics.median(per_op),
        "op_tail_ms": tail,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    info = {
        "rounds": len(rounds),
        "setup_spawns": len(spawns),
        "ops_per_round": n,
        "tail_percentile": pct,
        "tail_samples_beyond": min(n - 1, 10),
        "unscaled": {
            "setup_s": statistics.median(r["setup_s"] for r in spawns),
            "wall_s": sum(raw_per_op) / 1e3,
            "op_p50_ms": statistics.median(raw_per_op),
            "op_tail_ms": tail_of(raw_per_op)[0],
        },
        "round_speed_factor": factors,
        "round_reference_s": [r["reference_s"] for r in rounds],
        "round_wall_s": [r["wall_s"] for r in rounds],
        "op_labels": rounds[0]["labels"],
        "round_latencies_ms": [r["latencies_ms"] for r in rounds],
        "versions": rounds[0]["versions"],
    }
    passes = rounds
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_out = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced = spawn(args, "spans", deadline, spans_out)
        counted = spawn(args, "counts", deadline)
        f = speed_factor(traced)
        layers = {k: v * f if k.endswith("_s") else v for k, v in traced["layers"].items()}
        layers.update(counted["layers"])
        layers["trace.overhead_ratio"] = traced["wall_s"] * f / (rounds[0]["wall_s"] * factors[0])
        info["layers"] = layers
        info["spans_file"] = str(spans_out.relative_to(ROOT))
        passes = rounds + [traced, counted]
    info.update(summarize(passes))
    return e2e, info


def report(args, spec: dict, e2e: dict, info: dict) -> dict:
    fp = fingerprint(info.pop("versions"))
    print(f"fuselab bench  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print("fingerprint  " + " ".join(f"{k}={v}" for k, v in fp.items()))
    rounds = info["rounds"]
    raw = info["unscaled"]
    factors = info["round_speed_factor"]
    print(f"times scaled to the reference speed (round factors {min(factors):.3f} to "
          f"{max(factors):.3f}); unscaled times in brackets")
    print(f"  setup_s       {e2e['setup_s']:.4f} s    ({raw['setup_s']:.4f}) "
          f"median of {info['setup_spawns']} spawns")
    print(f"  wall_s        {e2e['wall_s']:.4f} s    ({raw['wall_s']:.4f}) "
          f"sum over ops of the median of {rounds} rounds")
    print(f"  op_p50_ms     {e2e['op_p50_ms']:.4f} ms   ({raw['op_p50_ms']:.4f}) "
          f"{info['ops_per_round']} ops per round")
    print(f"  op_tail_ms    {e2e['op_tail_ms']:.4f} ms   ({raw['op_tail_ms']:.4f}) "
          f"p{info['tail_percentile']:.2f}, "
          f"{info['tail_samples_beyond']} of {info['ops_per_round']} ops beyond it")
    error_rate = info["failed"] / info["attempted"]
    print(f"  error_rate    {error_rate:.4f} ratio {info['failed']} of {info['attempted']} ops failed")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:.2f} MB")
    for line in info["failures"][:5]:
        print(f"    failed op: {line}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    values = info["layers"] if args.trace else e2e
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units}
    if args.trace:
        for k, m in metrics.items():
            print(f"  {k:<32} {m['value']:.6g} {m['unit']}")
    record = {"fingerprint": fp, "end_to_end": e2e, "error_rate": error_rate, **info}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return {
        "correct": info["correct"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs a few ops per workload, for the self-tests")
    args = p.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "fuselab" / "__init__.py").is_file():
        print(f"error: no fuselab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        e2e, info = measure(args)
    except RunFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, spec, e2e, info)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
