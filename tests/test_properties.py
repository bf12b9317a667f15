"""Property checks: the config round trip through the manifest, zero-crossing
interpolation, each against its documented contract, and the one-element
path of the step's kernels against their array path."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ska.cli import main
from ska.dynamics import entropy_gradient, sigmoid
from ska.linalg import cosine_flat, frobenius_norm, matmul, outer_mean
from ska.metrics import crossing_positions, entropy_step, net_step

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
    # a sign change across a run of zeros is reported at its first zero, and
    # only such positions are integral
    nonzero = [i for i, v in enumerate(values) if v != 0.0]
    across = [float(i + 1) for i, j in zip(nonzero, nonzero[1:])
              if j > i + 1 and values[i] * values[j] < 0.0]
    assert [p for p in got if p == int(p)] == across
    # every sign change between nonzero neighbours gives one position strictly
    # between them, where the line through the two neighbours is zero
    changes = [i for i in range(1, len(values))
               if values[i - 1] * values[i] < 0.0]
    interpolated = [p for p in got if p != int(p)]
    assert [math.floor(p) + 1 for p in interpolated] == changes
    for p, i in zip(interpolated, changes):
        a, b = values[i - 1], values[i]
        assert abs(a + (p - (i - 1)) * (b - a)) <= 1e-9 * max(abs(a), abs(b))
        assert p == i - 1 + abs(a) / (abs(a) + abs(b))


# ------------------------------------------------- one-element kernels ---

# signed zeros, infinities, NaN, subnormals, sigmoid's saturation at 36 and
# exp's overflow and underflow near 709 and 746, beside any float
EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.5e-310, -2.5e-310,
         36.0, -36.0, 709.0, -709.0, 746.0, -746.0)
floats = st.one_of(st.sampled_from(EDGES), st.floats())


def _bits(x) -> str:
    """x exactly, sign of zero included; any NaN is "nan"."""
    x = float(x)
    return "nan" if math.isnan(x) else x.hex()


def _one(*values):
    return [np.array([[v]]) for v in values]


def _two(*pairs):
    return [np.array([pair]) for pair in pairs]


@settings(max_examples=300, deadline=None)
@given(floats, floats, floats)
def test_one_element_kernels_match_their_array_path(x, y, w):
    """A one-element operand takes Python floats; its result equals what the
    numpy path gives element [0, 0] of a 1x2 operand. The reductions get a
    second element that changes no result: a zero in each norm, and a -0.0
    product in each sum, since x + -0.0 is x for every x. matmul and
    outer_mean on 1x1 operands also equal numpy's own 1x1 product, and
    element [0, 0] of a (2, 1) x (1, 1) matmul, which takes the array path."""
    with np.errstate(all="ignore"):
        a, b = _one(x, y)
        m1, o1 = matmul(a, b), outer_mean(a, b)
        o2 = a.T @ b
        o2 /= 1
        m2 = matmul(np.array([[x], [w]]), b)[0, 0]
        assert m1.shape == o1.shape == (1, 1)
        assert _bits(m1[0, 0]) == _bits((a @ b)[0, 0]) == _bits(m2)
        assert _bits(o1[0, 0]) == _bits(o2[0, 0]) == _bits(m2)
        assert _bits(sigmoid(*_one(x))[0, 0]) == _bits(sigmoid(*_two((x, y)))[0, 0])
        out1, out2 = np.full((1, 1), 7.0), np.full((1, 2), 7.0)
        g1 = entropy_gradient(*_one(x, y), out=out1)
        g2 = entropy_gradient(*_two((x, w), (y, w)), out=out2)
        assert g1 is out1 and _bits(g1[0, 0]) == _bits(g2[0, 0])
        assert _bits(entropy_gradient(*_one(x, y))[0, 0]) == _bits(g2[0, 0])
        assert _bits(frobenius_norm(*_one(x))) == _bits(frobenius_norm(*_two((x, 0.0))))
        assert (_bits(cosine_flat(*_one(x, y)))
                == _bits(cosine_flat(*_two((x, 0.0), (y, 0.0)))))
        # out receives the product on both paths
        e1 = entropy_step(*_one(x, y), out=out1)
        e2 = entropy_step(*_two((x, 1.0), (y, -0.0)), out=out2)
        assert (_bits(e1), _bits(out1[0, 0])) == (_bits(e2), _bits(out2[0, 0]))
        n1 = net_step(*_one(x, y, w), out=out1)
        n2 = net_step(*_two((x, 0.0), (y, 0.0), (w, -0.0)), out=out2)
        assert (_bits(n1), _bits(out1[0, 0])) == (_bits(n2), _bits(out2[0, 0]))
        assert _bits(entropy_step(*_one(x, y))) == _bits(e1)
        assert _bits(net_step(*_one(x, y, w))) == _bits(n1)
