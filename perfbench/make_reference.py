"""Rebuild the stored reference outputs of the frozen workload configs.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each frozen config once with one BLAS thread and keeps, under
perfbench/reference/<workload>/, the JSON reports whole and each CSV with
at most about 120 of its data rows (every stride-th row, the stride a prime
above 5 so that the kept rows cover every layer, metric and run), plus
meta.json with the config and the full row counts. Run it only when the
program's outputs are meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads

KEEP_ROWS = 120
KEPT_FILES = {
    "glyph-train": ("trace.csv", "markers.csv"),
    "family-invariance": ("aligned.csv", "invariance_report.json"),
    "unit-variational": ("variational_report.json",),
}


def stride(rows: int) -> int:
    if rows <= 2 * KEEP_ROWS:
        return 1
    s = max(7, rows // KEEP_ROWS)
    while any(s % d == 0 for d in range(2, int(s ** 0.5) + 1)):
        s += 1
    return s


def rebuild(name: str) -> None:
    _, result, out_dir = run.Bench(name, seed=0, threads=1).spawn("frozen", "plain", 1)
    if "error" in result:
        sys.exit(result["error"])
    dest = checks.REFERENCE / name
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    files = list(KEPT_FILES[name])
    if name == "family-invariance":
        files += sorted(p.name for p in out_dir.glob("trace_run*.csv"))
    meta = {"config": workloads.WORKLOADS[name]["config"], "rows": {}, "files": []}
    for fname in files:
        src = out_dir / fname
        if fname.endswith(".json"):
            shutil.copyfile(src, dest / fname)
            meta["files"].append(fname)
            continue
        lines = src.read_text().splitlines()
        body = lines[1:]
        step = stride(len(body))
        kept = [row for i, row in enumerate(body) if i % step == 0 or i == len(body) - 1]
        (dest / fname).write_text("\n".join([lines[0], *kept]) + "\n")
        meta["rows"][fname] = len(body)
    (dest / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    print(f"{name}: kept {', '.join(files)} in {dest}")


if __name__ == "__main__":
    for workload in sys.argv[1:] or list(workloads.WORKLOADS):
        rebuild(workload)
