"""Benchmark of the ska command line over three workloads.

    python3 perfbench/run.py --workload glyph-train --seed 1 --seconds 40 --trace 0

--workload all runs the three workloads one after the other.

Load model: a closed loop with one client. Each iteration is a fresh
interpreter (child.py) that sets up and runs one ska command from the src/
tree of this checkout; the next starts after it has exited. BLAS threads are
pinned through the environment to min(2, nproc). Iterations alternate between
the workload's frozen acceptance config, whose outputs are held to the stored
reference, and the variant the seed draws; every iteration's outputs are
checked, and reruns of one config must be byte-identical.

--trace 0 prints the end-to-end metrics. --trace 1 runs rounds of an untraced
child, a traced child and a traced child with one BLAS thread, and prints the
per-layer metrics from the spans. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Working files go to
perfbench/_work/<workload>/, which each invocation clears first.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The parent only parses outputs; keep its BLAS from starting threads.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
MIN_ITERATIONS = 3
# set-up is short and noisy, so a run tops its samples up with set-up-only children
MIN_SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mib": "MiB"}

_LINALG_1T = ("linalg.matmul.s", "linalg.matmul.flop_per_s", "linalg.outer_mean.s",
              "linalg.outer_mean.flop_per_s", "linalg.norm_cos.s")
PER_LAYER = {
    "dynamics.sigmoid.calls": "count", "dynamics.sigmoid.elems": "count",
    "dynamics.sigmoid.s": "s", "dynamics.entropy_gradient.s": "s",
    "dynamics.step.calls": "count", "dynamics.step.self_s": "s",
    "dynamics.step.us_p50": "us", "dynamics.step.us_tail": "us",
    "dynamics.forward.self_s": "s", "dynamics.run.self_s": "s",
    "dynamics.init_network.s": "s",
    "linalg.matmul.calls": "count", "linalg.matmul.s": "s", "linalg.matmul.flop": "flop",
    "linalg.matmul.flop_per_s": "flop/s",
    "linalg.outer_mean.calls": "count", "linalg.outer_mean.s": "s",
    "linalg.outer_mean.flop": "flop", "linalg.outer_mean.flop_per_s": "flop/s",
    "linalg.bytes_computed": "B", "linalg.norm_cos.s": "s",
    "metrics.add.calls": "count", "metrics.add.self_s": "s", "metrics.finish.s": "s",
    "metrics.markers.calls": "count", "variational.calls": "count",
    "charts.line_chart.calls": "count", "cli.write_json.s": "s",
    "cli.self_s": "s", "cli.bytes_written": "B",
    "data.build.s": "s", "data.take_batch.calls": "count", "data.take_batch.s": "s",
    **{f"{layer}.errors": "count" for layer in tracer.LAYERS},
    "trace.overhead_s": "s",
    **{f"baseline_1t.{m}": ("flop/s" if m.endswith("per_s") else "s") for m in _LINALG_1T},
    "baseline_1t.wall_s": "s",
}
# Times of layers that some workloads never call. They read 0 on those, so
# they are printed with the per-layer figures but kept out of the result line.
PRINTED_ONLY = {
    "metrics.markers.s": "s", "invariance.run_family.self_s": "s",
    "invariance.resample.s": "s", "invariance.compare.s": "s", "variational.s": "s",
    "charts.line_chart.s": "s", "cli.write_trace_csv.s": "s", "cli.write_markers_csv.s": "s",
}
# Per-layer counts that must repeat exactly between traced children.
EXACT = tuple(m for m in PER_LAYER if m.endswith((".calls", ".elems", ".flop"))
              and not m.startswith("baseline_1t.")) + ("linalg.bytes_computed",)


def pinned_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def environment(seed: int, threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


class Bench:
    """One workload's iterations: child runs, output checks, collected results."""

    def __init__(self, name: str, seed: int, threads: int):
        self.name = name
        self.threads = threads
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.configs = workloads.configs(name, seed)
        for which, cfg in self.configs.items():
            (self.work / f"{which}.json").write_text(json.dumps(cfg))
        self.digests = {}
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def spawn(self, which: str, mode: str, threads: int) -> tuple:
        """Run one child (mode plain, traced or setup) to completion; returns
        (tag, result, out_dir)."""
        tag = f"{self.count:03d}-{which}-{mode}-{threads}t"
        self.count += 1
        out_dir, result_path = self.work / tag, self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "child.py"), self.name,
               str(self.work / f"{which}.json"), str(out_dir), str(result_path)]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update({var: str(threads) for var in THREAD_VARS})
        proc = subprocess.run(cmd + [f"--{mode}"], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        if not result.get("ok"):
            result["error"] = (f"child exited {proc.returncode}: "
                               f"{result.get('error') or proc.stderr[-2000:]}")
        return tag, result, out_dir

    def iteration(self, which: str, mode: str = "plain", threads: int | None = None):
        """Run one child and check its outputs; returns (result, out_dir, ok)."""
        threads = threads or self.threads
        self.attempted += 1
        tag, result, out_dir = f"{self.count:03d}-{which}", {}, None
        try:
            tag, result, out_dir = self.spawn(which, mode, threads)
            if "error" in result:
                fails = [result["error"]]
            else:
                fails = [] if mode == "setup" else self.check(which, threads, out_dir, result)
        except Exception:  # noqa: BLE001 - a crash in one iteration counts as its failure
            fails = [traceback.format_exc()]
        self.fail(tag, fails)
        return result, out_dir, not fails

    def fail(self, tag: str, messages: list) -> None:
        """Record a failed run: `messages` are its failed checks."""
        if messages:
            self.failed += 1
            self.failures += [(tag, m) for m in messages]

    def check(self, which: str, threads: int, out_dir: Path, result: dict) -> list:
        cfg = self.configs[which]
        fails = checks.outputs(self.name, out_dir, result)
        if which == "frozen":
            fails += checks.against_reference(self.name, out_dir, result.get("z_range", 0.0))
        steps = workloads.euler_steps(self.name, cfg)
        if result["euler_steps"] != steps:
            fails.append(f"integrated {result['euler_steps']} Euler steps, config implies {steps}")
        got = checks.digests(out_dir)
        first = self.digests.setdefault((which, threads), got)
        changed = sorted(f for f in set(got) | set(first) if got.get(f) != first.get(f))
        if changed:
            fails.append("rerun not byte-identical: " + ", ".join(changed))
        return fails


def stop(t0: float, done: int, minimum: int, seconds: float) -> bool:
    """Stop once the next run would end past the budget, after `minimum` runs."""
    elapsed = time.perf_counter() - t0
    return done >= minimum and elapsed * (done + 1) / done > seconds


def end_to_end(bench: Bench, seconds: float) -> tuple:
    samples = []
    t0 = time.perf_counter()
    while True:
        which = ("frozen", "variant")[len(samples) % 2]
        result, _, _ = bench.iteration(which)
        samples.append(result)
        if stop(t0, len(samples), MIN_ITERATIONS, seconds):
            break
    timed = [s for s in samples if "wall_s" in s]
    setups = [s["setup_s"] for s in timed]
    while len(setups) < MIN_SETUP_SAMPLES:
        result, _, _ = bench.iteration(("frozen", "variant")[len(setups) % 2], "setup")
        setups.append(result.get("setup_s"))
    series = {
        "wall_s": [s["wall_s"] for s in timed],
        "setup_s": [s for s in setups if s is not None],
        "steps_per_s": [s["euler_steps"] / s["run_s"] for s in timed if s["run_s"] > 0],
        "peak_rss_mib": [s["peak_rss_mib"] for s in timed],
    }
    metrics = {k: statistics.median(v) if v else 0.0 for k, v in series.items()}
    lines = [f"{'metric':<13} {'value':<12} unit"]
    for key, values in series.items():
        tail = tracer.tail_percentile(len(values))
        note = (f"p{tail:g} {tracer.percentile(values, tail):.6g}" if tail
                else "no percentile has 10 samples beyond it")
        lines.append(f"{key:<13} {metrics[key]:<12.6g} {END_TO_END[key]:<4} "
                     f"median of {len(values)}; {note}")
    lines.append(f"error_rate    {bench.failed / bench.attempted:<12.6g} -    "
                 f"{bench.failed} of {bench.attempted} iterations failed")
    return metrics, lines


def _crossings(out_dir: Path) -> int:
    report = json.loads((out_dir / "variational_report.json").read_text())
    return sum(len(u["net_identity_crossings"]) for u in report["units"])


def traced_layers(child: dict, out_dir: Path) -> dict:
    with np.load(Path(out_dir).with_suffix(".npz")) as spans:
        return tracer.layer_metrics(spans, child.get("work", {}), child.get("errors", {}))


def per_layer(bench: Bench, seconds: float) -> tuple:
    rounds = []
    t0 = time.perf_counter()
    while True:
        which = ("frozen", "variant")[len(rounds) % 2]
        plain, _, ok_plain = bench.iteration(which)
        traced, traced_dir, ok_traced = bench.iteration(which, "traced")
        single, single_dir, ok_single = bench.iteration(which, "traced", threads=1)
        if ok_plain and ok_traced and ok_single:
            layers = traced_layers(traced, traced_dir)
            layers_1t = traced_layers(single, single_dir)
            crossings = _crossings(traced_dir) if bench.name == "unit-variational" else 0
            expected = workloads.expected_counts(bench.name, bench.configs[which], crossings)
            bench.fail(f"round {len(rounds)}", [
                *(f"{k} = {layers[k]}, config implies {v}"
                  for k, v in expected.items() if layers[k] != v),
                *(f"{k} = {layers_1t[k]} with one thread, {layers[k]} with {bench.threads}"
                  for k in EXACT if layers[k] != layers_1t[k])])
            layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            layers["cli.bytes_written"] = sum(p.stat().st_size for p in traced_dir.iterdir())
            for key in _LINALG_1T:
                layers[f"baseline_1t.{key}"] = layers_1t[key]
            layers["baseline_1t.wall_s"] = single["wall_s"]
            rounds.append((which, layers))
        else:
            rounds.append((which, None))
        if stop(t0, len(rounds), 1, seconds):
            break
    for which in ("frozen", "variant"):
        seen = [l for w, l in rounds if w == which and l is not None]
        for i, later in enumerate(seen[1:], 1):
            bench.fail(f"{which} round {i}", [f"{k} changed between rounds of one config"
                                              for k in EXACT if later[k] != seen[0][k]])
    good = [l for _, l in rounds if l is not None]
    shown = {**PER_LAYER, **PRINTED_ONLY}
    metrics = {k: statistics.median(l[k] for l in good) if good else 0.0 for k in shown}
    tails = {l["dynamics.step.tail_percentile"] for l in good}
    lines = [f"{k:<42} {v:<14.6g} {shown[k]}" for k, v in metrics.items()]
    lines.append(f"dynamics.step.us_tail is percentile {sorted(map(str, tails))}; "
                 f"{len(good)} round(s) of 3 children")
    return metrics, lines


def bench_workload(name: str, seed: int, seconds: float, trace: bool, threads: int) -> bool:
    bench = Bench(name, seed, threads)
    # Warm the file cache and byte-compile ska before anything is timed.
    bench.spawn("frozen", "setup", threads)
    env = environment(seed, threads)
    if trace:
        metrics, lines = per_layer(bench, seconds)
        units = PER_LAYER
    else:
        metrics, lines = end_to_end(bench, seconds)
        units = END_TO_END
    print(f"== {name}: seed {seed}, trace {int(trace)}, {bench.attempted} runs, "
          f"{threads} BLAS thread(s) ==")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for tag, message in bench.failures[:10]:
        print(f"FAILED {tag}: {message.strip().splitlines()[-1]}")
    summary = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": min(bench.failed, bench.attempted),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (bench.work / "result.json").write_text(json.dumps(
        {**summary, "env": env, "failures": bench.failures}, indent=1))
    print(json.dumps(summary), flush=True)
    return summary["correct"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ska" / "__init__.py").is_file():
        print(f"error: no ska sources at {ROOT / 'src' / 'ska'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = [bench_workload(n, args.seed, args.seconds, bool(args.trace), pinned_threads())
          for n in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
