"""Property checks: the config round trip through the manifest, zero-crossing
interpolation, each against its documented contract."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ska.cli import main
from ska.metrics import crossing_positions

# ------------------------------------------------------- config round trip ---


@st.composite
def train_configs(draw):
    """Accepted train configs, with optional keys present or left to their defaults."""
    source = draw(st.sampled_from(["synthetic", "constant", "glyphs"]))
    n = draw(st.integers(4, 12))
    data = {"source": source, "n": n}
    if source == "synthetic":
        dim = draw(st.integers(2, 5))
        data.update(dim=dim, classes=draw(st.integers(1, 2)), center_spacing=0.1)
    elif source == "constant":
        dim = draw(st.integers(1, 3))
        data.update(dim=dim, value=draw(st.floats(0.0, 1.0)))
    else:
        dim = 784
    if source != "constant" and draw(st.booleans()):
        data["seed"] = draw(st.integers(0, 50))
    network = {"layer_sizes": [dim] + draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))}
    if draw(st.booleans()):
        network["init_std_scale"] = draw(st.one_of(st.integers(0, 2), st.floats(0.0, 2.0)))
    run = {"dt": draw(st.sampled_from([0.05, 0.1, 0.025])), "steps": draw(st.integers(1, 5))}
    cfg = {"network": network, "run": run, "data": data}
    if draw(st.booleans()):
        cfg["seed"] = draw(st.integers(0, 100))
    return cfg


@settings(max_examples=25, deadline=None)
@given(train_configs())
def test_manifest_config_resolves_to_itself(cfg):
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)

        def train(config, out):
            (d / f"{out}.json").write_text(json.dumps(config))
            rc = main(["train", "--config", str(d / f"{out}.json"), "--out", str(d / out),
                       "--no-svg"])
            assert rc == 0
            return json.loads((d / out / "manifest.json").read_text())["config"]

        echo = train(cfg, "first")
        assert train(echo, "replay") == echo
        for name in ("trace.csv", "markers.csv"):
            assert (d / "first" / name).read_bytes() == (d / "replay" / name).read_bytes()


# ----------------------------------------------------- crossing positions ---

signed = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@given(st.lists(signed, max_size=30))
def test_crossing_positions_matches_its_docstring(values):
    got = crossing_positions(np.array(values))
    assert got == sorted(got) and len(set(got)) == len(got)
    # exact zeros are reported at their own index, and only they are integral
    assert [p for p in got if p == int(p)] == [float(i) for i, v in enumerate(values) if v == 0.0]
    # every sign change between nonzero neighbours gives one position strictly
    # between them, where the line through the two neighbours is zero
    changes = [i for i in range(1, len(values))
               if values[i - 1] * values[i] < 0.0]
    interpolated = [p for p in got if p != int(p)]
    assert [math.floor(p) + 1 for p in interpolated] == changes
    for p, i in zip(interpolated, changes):
        a, b = values[i - 1], values[i]
        assert abs(a + (p - (i - 1)) * (b - a)) <= 1e-9 * max(abs(a), abs(b))

