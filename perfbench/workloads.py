"""The benchmark's workloads: one fixed configuration each, plus a seed.

Each workload stresses a different layer of the ``simine mine`` pipeline
(load -> selectors -> prior fit -> search [-> absorb]).  Sizes are chosen so
that one pipeline run takes a few seconds on a 2-core machine, which lets a
benchmark run repeat it several times and report medians, while keeping the
layer shares of the larger configurations they were derived from.

``tiny`` overrides shrink a workload for the benchmark's self-tests; they keep
the planted structure strong enough for every correctness check to hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Block:
    """A planted block between groups ``grp=val1`` and ``grp=val2``."""

    val1: str
    val2: str
    size: int
    density: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    background_density: float
    blocks: tuple
    noise_attrs: int
    noise_values: int
    mode: str                       # "single" | "bi" | "iterate"
    block_prior: tuple = ()         # blocks+degree prior on these attributes; () = degree
    numeric_attrs: int = 0
    numeric_bins: int = 6
    beam_width: int = 20
    x1: int = 4
    x2: int = 3
    depth: int = 2
    rounds: int = 1
    absorb: int = 1
    planted_rounds: int = 1         # leading round tops that must be planted blocks
    tiny: dict = field(default_factory=dict, compare=False)

    def at_size(self, tiny: bool) -> "Workload":
        return replace(self, **self.tiny) if tiny else self


WORKLOADS = {w.name: w for w in [
    Workload(
        name="nested-bi",
        why="The paper's primary bi-subgroup mode: per-candidate score_bi "
            "(pair sums plus edge counts) dominates and the fit is a minor share.",
        n=450, background_density=0.02,
        blocks=(Block("g1", "g2", 27, 0.25),),
        noise_attrs=4, noise_values=5,
        mode="bi",
        tiny={"n": 160, "blocks": (Block("g1", "g2", 20, 0.4),),
              "noise_values": 3},
    ),
    Workload(
        name="fit-blocks",
        why="The O(n^2)-per-sweep coordinate-Newton fit over degree and block "
            "multipliers is most of the run and scoring is nearly idle.",
        n=900, background_density=0.01,
        blocks=(Block("g1", "g1", 36, 0.15),),
        noise_attrs=4, noise_values=5,
        mode="single", block_prior=("noise0",), beam_width=10,
        tiny={"n": 240, "blocks": (Block("g1", "g1", 24, 0.4),),
              "noise_values": 3},
    ),
    Workload(
        name="iterate-absorb",
        why="Iterative mining writes to the model (absorption) between rounds "
            "of reads (scoring), and every absorbed pattern makes later reads costlier.",
        n=240, background_density=0.02,
        blocks=(Block("g1", "g2", 24, 0.4), Block("h1", "h2", 24, 0.3)),
        noise_attrs=2, noise_values=3, numeric_attrs=1, numeric_bins=3,
        mode="iterate", rounds=4, absorb=1, planted_rounds=2,
        tiny={"n": 160, "blocks": (Block("g1", "g2", 20, 0.6), Block("h1", "h2", 20, 0.45)),
              "noise_attrs": 2, "noise_values": 3, "rounds": 3},
    ),
]}
