"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD CONFIG OUT RESULT --plain|--traced|--setup

Times the set-up (import ska, build the workload's dataset, init_network),
then runs the workload's ska command in process through ska.cli.main and
writes the timings to RESULT as JSON. The only wrapper outside set-up sits
on dynamics.run at the names the CLI and the invariance module call it by;
it sums the time spent inside run and the Euler steps integrated. With
--traced every wrapped public function also records spans, saved next to
RESULT (same name, .npz) after the command returns. --setup stops after the
set-up, to sample its time without running the command.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class RunProbe:
    """Time inside dynamics.run, Euler steps integrated, first trace returned."""

    def __init__(self):
        self.seconds = 0.0
        self.steps = 0
        self.first_trace = None

    def wrap(self, fn):
        def run(net, *args, **kwargs):
            t = time.perf_counter()
            trace = fn(net, *args, **kwargs)
            self.seconds += time.perf_counter() - t
            self.steps += net.config.steps + 1
            if self.first_trace is None:
                self.first_trace = trace
            return trace

        return run


def main(argv) -> int:
    name, config_path, out_dir, result_path, mode = argv
    result = {"ok": False}
    try:
        sys.path.insert(0, str(SRC))
        t0 = time.perf_counter()
        import ska
        import ska.cli
        import_s = time.perf_counter() - t0
        if Path(ska.__file__).resolve().parent != SRC / "ska":
            raise ImportError(f"ska imported from {ska.__file__}, not from {SRC}")
        sys.path.insert(0, str(HERE))
        import workloads

        tracer = None
        if mode == "--traced":
            from tracer import Tracer
            tracer = Tracer()
            sites = tracer.install()
        probe = RunProbe()
        for module in (ska.cli, ska.invariance):
            module.run = probe.wrap(module.run)

        t0 = time.perf_counter()
        cfg = ska.cli.load_config(config_path)
        ds = ska.cli.build_dataset(ska.cli.resolve_data(cfg, cfg["seed"]))
        dt, steps = workloads.first_run(name, cfg)
        ska.dynamics.init_network(ska.dynamics.NetworkConfig(
            layer_sizes=tuple(cfg["network"]["layer_sizes"]), dt=dt, steps=steps,
            init_std_scale=cfg["network"].get("init_std_scale", 1.0), seed=cfg["seed"]))
        setup_s = import_s + time.perf_counter() - t0
        del ds
        result.update(ok=True, setup_s=setup_s, import_s=import_s)
        if mode != "--setup":
            command = workloads.WORKLOADS[name]["command"]
            t1 = time.perf_counter()
            rc = ska.cli.main([command[0], "--config", config_path, "--out", out_dir,
                               *command[1:]])
            wall_s = time.perf_counter() - t1
            result.update(
                ok=rc == 0, rc=rc, wall_s=wall_s, run_s=probe.seconds,
                euler_steps=probe.steps,
                peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
            if rc != 0:
                result["error"] = f"ska {command[0]} exited {rc}"
            paths = probe.first_trace.unit_paths if probe.first_trace is not None else {}
            if paths:
                import numpy as np
                z = next(iter(paths.values()))
                result["zdot_max"] = float(np.abs(np.diff(z)).max()) / probe.first_trace.dt
                result["z_range"] = float(z.max() - z.min())
        if tracer is not None:
            tracer.save(Path(result_path).with_suffix(".npz"))
            result.update(work=tracer.work, errors=tracer.errors, sites=sites)
    except Exception:  # noqa: BLE001 - reported to the parent as a failed iteration
        result["error"] = traceback.format_exc()
    Path(result_path).write_text(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
