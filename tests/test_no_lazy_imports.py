"""The run path does not import ``numpy.ma``, and the sort-based
replacements of ``np.unique``, ``np.quantile`` and ``np.intersect1d`` it
uses give numpy's values bit for bit.

On numpy >= 2.3 the first plain ``np.unique`` call in a process imports
``numpy.ma`` (about 18 ms of CPU time), and ``np.quantile`` and
``np.intersect1d`` call it.  On numpy 2.0, the floor the CI also tests,
nothing imports ``numpy.ma`` lazily, so the subprocess test passes trivially
there; it is meaningful on current numpy."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simine import block_mean_probability, fit_density_prior
from simine.descriptions import _quantiles
from simine.graph import _distinct

from conftest import random_graph

SRC = Path(__file__).resolve().parent.parent / "src"

RUN = textwrap.dedent("""
    import sys
    from pathlib import Path

    import numpy as np

    from simine import (AttributeColumn, AttributedGraph, SearchConfig, SelectorConfig,
                        fit_degree_prior, generate_selectors, iterate, load_graph, save_graph)
    from simine.cli import main

    out = Path(sys.argv[1])
    rng = np.random.default_rng(5)
    n = 120
    grp = np.array(["g1"] * 20 + ["g2"] * 20 + ["none"] * (n - 40))
    noise = rng.choice(["a", "b", "c"], n)
    x = np.round(rng.normal(size=n), 3)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < (0.4 if {grp[u], grp[v]} == {"g1", "g2"} else 0.03)]
    g = AttributedGraph(n, pairs, columns=[AttributeColumn("grp", "nominal", grp),
                                           AttributeColumn("noise", "nominal", noise),
                                           AttributeColumn("x", "numeric", x)])
    save_graph(g, out / "g.edges", out / "g.csv")
    assert "numpy.ma" not in sys.modules, "imported before the run"

    g = load_graph(out / "g.edges", out / "g.csv")
    assert g.column("x").kind == "numeric"
    selectors = generate_selectors(g, SelectorConfig(numeric_bins=4))
    model = fit_degree_prior(g)
    result = iterate(g, model, selectors, SearchConfig(x1=3, x2=2), rounds=2)
    assert len(result.rounds) == 2
    assert main(["mine", "--edges", str(out / "g.edges"), "--attrs", str(out / "g.csv"),
                 "--prior", "degree", "--mode", "iterate:2", "--x1", "3", "--x2", "2",
                 "--output", str(out / "report.ndjson")]) == 0
    print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
""")


def test_run_path_imports_no_numpy_ma(tmp_path):
    # a fresh process: pytest and hypothesis may have imported numpy.ma here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "report.ndjson").read_text(encoding="utf-8").strip()
    assert done.stdout.strip().splitlines()[-1] == "[]"


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False, width=64))


def _zeros_of(values):
    return {np.signbit(v) for v in values.tolist() if v == 0.0}


@settings(max_examples=400, deadline=None)
@given(values=st.lists(_FLOATS, min_size=1, max_size=60), nan=st.booleans())
def test_distinct_is_np_unique(values, nan):
    """``_distinct`` gives ``np.unique``'s values bit for bit, NaNs as one.
    Of -0.0 and 0.0 it keeps the zero numpy's default sort puts first, as
    ``np.unique``'s sort path does; that sort is not stable, so which one is
    not specified."""
    x = np.array(values + [np.nan, np.nan] * nan)
    got, want = _distinct(x), np.unique(x)
    assert got.dtype == want.dtype
    if len(_zeros_of(x)) < 2:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_array_equal(got, want)
        first = np.sort(x)[np.flatnonzero(np.sort(x) == 0.0)[0]]
        assert _zeros_of(got) == {np.signbit(first)}
    ids = np.array([int(v) % 7 for v in values if np.isfinite(v)], dtype=np.int64)
    assert _distinct(ids).tolist() == np.unique(ids).tolist()


@settings(max_examples=400, deadline=None)
@given(values=st.one_of(st.lists(_FLOATS, min_size=1, max_size=200),
                        st.lists(st.sampled_from([0.0, -0.0, 1.5, -3.0]), min_size=1,
                                 max_size=200)),
       bins=st.integers(2, 12))
def test_quantiles_are_np_quantile(values, bins):
    """``_quantiles`` gives ``np.quantile``'s default (linear) quantiles at
    the selector boundaries of ``bins`` bins: bit for bit on finite data,
    and where an infinite value meets interpolation the same NaN."""
    x = np.array(values)
    q = np.linspace(0.0, 1.0, bins + 1)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = _quantiles(x, q), np.quantile(x, q)
    if np.all(np.isfinite(x)):
        assert got.tobytes() == want.tobytes()
        # the boundaries the selectors get
        assert _distinct(got).tobytes() == np.unique(want).tobytes()
    else:
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.fixture(scope="module")
def model():
    g = random_graph(3, n=9, directed=False)
    return fit_density_prior(g, 0.3)


@settings(max_examples=200, deadline=None)
@given(a=st.lists(st.integers(-1, 9), max_size=6), b=st.lists(st.integers(-1, 9), max_size=6))
def test_block_mean_probability_errors_and_overlap(model, a, b):
    """Vertex sets out of range or repeated, and an empty pair universe,
    raise the errors they always did; otherwise the overlap counts the
    shared vertices, so ``n_w`` counts the distinct pairs."""
    want = None
    for ids, what in ((a, "first vertex set"), (b, "second vertex set")):
        if want is None and any(not 0 <= v < model.n for v in ids):
            want = f"{what}: vertex ids must lie in [0, {model.n})"
        elif want is None and len(set(ids)) != len(ids):
            want = f"{what}: vertex ids must not repeat"
    pairs = {(min(u, v), max(u, v)) for u in a for v in b if u != v}
    if want is None and not pairs:
        want = "pair universe is empty for the given sets"
    if want is not None:
        with pytest.raises(ValueError) as exc:
            block_mean_probability(model, a, b)
        assert str(exc.value) == want
        return
    p_w, n_w = block_mean_probability(model, a, b)
    assert n_w == len(pairs)
    assert 0.0 < p_w < 1.0
