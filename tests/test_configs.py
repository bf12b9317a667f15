"""The README's Configs section: every file in configs/ is listed there, each
listed command resolves its config, and the cheap ones run end to end and
report. The README's annotated config block and data-source bullets name
the keys of the config tables.

The glyph config is the frozen config of the benchmark's glyph-train
workload, which acceptance 6 and the benchmark already run; here it is only
resolved and held equal to that workload.
"""

import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ska.cli import DATA, SECTIONS, SOURCES, build_parser, main, resolve_config

ROOT = Path(__file__).resolve().parents[1]
# listed config -> the benchmark workload whose frozen config it is
BENCHMARKED = {"configs/glyph_shapes.json": "glyph-train"}


def _readme_lines() -> list:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Configs\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("ska ")]


def _option(argv: list, name: str) -> str:
    return argv[argv.index(name) + 1]


def _with_option(argv: list, name: str, value) -> list:
    i = argv.index(name)
    return argv[:i + 1] + [str(value)] + argv[i + 2:]


LINES = _readme_lines()


def test_every_config_is_listed_once():
    listed = [_option(shlex.split(line), "--config") for line in LINES]
    on_disk = [p.relative_to(ROOT).as_posix() for p in (ROOT / "configs").glob("*.json")]
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(on_disk)


def _workload(name: str) -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS[name]


@pytest.mark.parametrize("line", LINES,
                         ids=lambda line: Path(_option(line.split(), "--config")).stem)
def test_listed_command_runs_and_reports(tmp_path, capsys, line):
    command, report = (shlex.split(part) for part in line.split(" && "))
    assert command[0] == "ska" and report[:2] == ["ska", "report"]
    config, out = _option(command, "--config"), _option(command, "--out")
    assert report[2:] == ["--out", out]
    argv = _with_option(_with_option(command[1:], "--config", ROOT / config),
                        "--out", tmp_path / out)

    resolved = resolve_config(build_parser().parse_args(argv))
    # every key is spelled out: the file is its own resolved config
    assert resolved == json.loads((ROOT / config).read_text())

    if config in BENCHMARKED:
        workload = _workload(BENCHMARKED[config])
        flags = [a for a in command[1:] if a not in ("--config", config, "--out", out)]
        assert flags == workload["command"]
        frozen = tmp_path / "frozen.json"
        frozen.write_text(json.dumps(workload["config"]))
        assert resolve_config(build_parser().parse_args(
            _with_option(argv, "--config", frozen))) == resolved
        return

    assert main(argv) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path / out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


def test_family_artifacts_do_not_depend_on_blas_threads(tmp_path):
    """The family's products are below SMALL_PRODUCT, so every run of it
    uses one BLAS thread: its CSVs and report are the same bytes under any
    OPENBLAS_NUM_THREADS. Only the manifest, which records the environment
    and the duration, may differ."""
    outs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                             os.environ.get("PYTHONPATH")])))
        out = outs[threads] = tmp_path / f"t{threads}"
        proc = subprocess.run([sys.executable, "-m", "ska", "invariance", "--config",
                               str(ROOT / "configs/invariance_family.json"), "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        env_block = json.loads((out / "manifest.json").read_text())["environment"]
        assert env_block["thread_vars"]["OPENBLAS_NUM_THREADS"] == threads
        assert env_block["blas_threads"] == [1, 1, 1, 1]
    names = sorted(p.name for p in outs["1"].iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in outs["2"].iterdir() if p.name != "manifest.json")
    assert len(names) == 7
    for name in names:
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


def test_readme_data_sources_list_the_keys_of_their_tables():
    """The annotated block under "Config schema" is JSON once its comments
    are cut, and holds each section's keys; each bullet under "Data source
    parameters" is a source and its keys, backticked. A key deleted from
    SECTIONS, DATA or SOURCES cannot stay documented."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n### Config schema\n", 1)[1].split("```jsonc\n", 1)[1]
    block = json.loads(re.sub(r"//.*", "", block.split("```", 1)[0]))
    assert set(block) == {"seed", "data", *SECTIONS}
    assert {name: set(block[name]) for name in SECTIONS} == \
        {name: set(table) for name, table in SECTIONS.items()}
    assert set(block["data"]) == set(DATA)
    bullets = text.split("\nData source parameters, with defaults:\n", 1)[1]
    bullets = bullets.strip("\n").split("\n\n", 1)[0]
    documented = {}
    for bullet in ("\n" + bullets).split("\n- ")[1:]:
        source, *keys = re.findall(r"`([^`]+)`", bullet)
        documented[source] = set(keys)
    assert documented == {source: set(table) for source, table in SOURCES.items()}
