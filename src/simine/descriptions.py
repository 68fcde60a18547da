"""Pattern description language: selectors, conjunctions, extensions.

Canonical text rendering (used in all reports, machine-parseable)::

    description := selector (" ∧ " selector)*
    selector    := attr "=" value          -- equality on a nominal attribute
                 | attr "∈[" lo "," hi "]"  -- closed interval on a numeric attribute

Attribute names must not contain " ∧ ", "=" or "∈[", nominal values must
not contain " ∧ " or "∈[" nor end in " ∧", and neither may have surrounding
whitespace; ``AttributedGraph`` rejects such data.  Interval bounds are
rendered with ``repr`` so they parse back to the exact same float.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .graph import NOMINAL, NUMERIC, AttributedGraph

log = logging.getLogger(__name__)

__all__ = [
    "DescriptionError",
    "Selector",
    "EqualsSelector",
    "RangeSelector",
    "Description",
    "EMPTY_DESCRIPTION",
    "SelectorConfig",
    "extension",
    "selector_mask",
    "generate_selectors",
    "parse_selector",
    "parse_description",
]


class DescriptionError(ValueError):
    """Unknown attribute, kind mismatch, or malformed description text."""


@dataclass(frozen=True)
class Selector:
    """Atomic predicate on one attribute."""

    attribute: str

    def sort_key(self):
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class EqualsSelector(Selector):
    """``attribute = value`` on a nominal attribute; never matches missing."""

    value: str

    def sort_key(self):
        return (self.attribute, 0, self.value, 0.0, 0.0)

    def render(self) -> str:
        return f"{self.attribute}={self.value}"


@dataclass(frozen=True)
class RangeSelector(Selector):
    """``attribute in [lower, upper]`` (closed) on a numeric attribute."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise DescriptionError("interval bounds must be finite")
        if not self.lower < self.upper:
            raise DescriptionError(
                f"interval needs lower < upper, got [{self.lower}, {self.upper}]")

    def sort_key(self):
        return (self.attribute, 1, "", self.lower, self.upper)

    def render(self) -> str:
        return f"{self.attribute}∈[{self.lower!r},{self.upper!r}]"


@dataclass(frozen=True)
class Description:
    """Conjunction of selectors in canonical order.

    Selector order does not matter for equality or hashing.  The empty
    description (vacuous conjunction, extension = V) is a search-internal
    root only and never appears in a reported pattern.
    """

    selectors: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "selectors",
                           tuple(sorted(self.selectors, key=lambda s: s.sort_key())))

    def __len__(self) -> int:
        return len(self.selectors)

    def __str__(self) -> str:
        return " ∧ ".join(s.render() for s in self.selectors)

    @property
    def attributes(self) -> frozenset:
        return frozenset(s.attribute for s in self.selectors)

    def with_selector(self, s: Selector) -> "Description":
        if s.attribute in self.attributes:
            raise DescriptionError(
                f"attribute {s.attribute!r} is already constrained in {self}")
        return Description(self.selectors + (s,))


EMPTY_DESCRIPTION = Description(())


def selector_mask(s: Selector, g: AttributedGraph) -> np.ndarray:
    """Boolean extension of a single selector; missing values never match."""
    col = g.column(s.attribute)
    if isinstance(s, EqualsSelector):
        if col.kind != NOMINAL:
            raise DescriptionError(
                f"equality selector on non-nominal attribute {s.attribute!r}")
        # a value outside the domain is coded len(domain), which no vertex has
        i = bisect_left(col.domain, s.value)
        return col.codes == (i if col.domain[i:i + 1] == (s.value,) else len(col.domain))
    if isinstance(s, RangeSelector):
        if col.kind != NUMERIC:
            raise DescriptionError(
                f"interval selector on non-numeric attribute {s.attribute!r}")
        with np.errstate(invalid="ignore"):
            return (col.values >= s.lower) & (col.values <= s.upper)
    raise DescriptionError(f"unknown selector type {type(s).__name__}")


def extension(d: Description, g: AttributedGraph) -> np.ndarray:
    """Boolean mask of the vertices satisfying every selector of ``d``."""
    mask = np.ones(g.n, dtype=bool)
    for s in d.selectors:
        mask &= selector_mask(s, g)
    return mask


@dataclass
class SelectorConfig:
    """Selector-space generation knobs.

    Numeric attributes get ``numeric_bins + 1`` equal-frequency boundaries
    and one interval selector per boundary pair.
    """

    numeric_bins: int = 6


def generate_selectors(g: AttributedGraph, cfg: SelectorConfig | None = None) -> list:
    """Build the full selector space for a graph, deterministically ordered.

    Nominal attributes yield one equality selector per domain value; numeric
    attributes yield every boundary-pair interval from an equal-frequency
    binning.  Selectors with empty extensions, or whose extension is all of
    V, are dropped.
    """
    cfg = cfg or SelectorConfig()
    if cfg.numeric_bins < 2:
        raise ValueError("numeric_bins must be >= 2")
    out = []
    for col in g.columns:
        domain = col.distinct()
        if len(domain) < 2:
            log.warning("attribute %r has %d distinct value(s); no selectors generated",
                        col.name, len(domain))
            continue
        if col.kind == NOMINAL:
            candidates = [EqualsSelector(col.name, v) for v in domain]
        else:
            vals = col.values[~np.isnan(col.values)]
            bounds = np.unique(np.quantile(vals, np.linspace(0.0, 1.0, cfg.numeric_bins + 1)))
            candidates = [RangeSelector(col.name, float(bounds[i]), float(bounds[j]))
                          for i in range(len(bounds)) for j in range(i + 1, len(bounds))]
        for s in candidates:
            mask = selector_mask(s, g)
            cnt = int(np.count_nonzero(mask))
            if cnt == 0 or cnt == g.n:
                continue
            out.append(s)
    return out


# -- report grammar ------------------------------------------------------------


def parse_selector(text: str) -> Selector:
    text = text.strip()
    if "∈[" in text:
        attr, _, rest = text.partition("∈[")
        if not rest.endswith("]"):
            raise DescriptionError(f"malformed interval selector {text!r}")
        lo_s, _, hi_s = rest[:-1].partition(",")
        try:
            lo, hi = float(lo_s), float(hi_s)
        except ValueError as exc:
            raise DescriptionError(f"malformed interval bounds in {text!r}") from exc
        return RangeSelector(attr, lo, hi)  # its own errors name the real reason
    if "=" in text:
        attr, _, value = text.partition("=")
        return EqualsSelector(attr, value)
    raise DescriptionError(f"malformed selector {text!r}")


def parse_description(text: str) -> Description:
    """Inverse of ``str(description)`` for non-empty descriptions."""
    text = text.strip()
    if not text:
        raise DescriptionError("cannot parse an empty description")
    return Description(tuple(parse_selector(part) for part in text.split(" ∧ ")))
