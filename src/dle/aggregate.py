"""Answer extraction and majority voting over completed sequences.

Uniform weighting is the default; probability weighting (leaf mass as the
vote weight) sits behind a flag. Extraction failures map to a reserved
label that can never win a vote.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ConfigError

UNPARSED = "__unparsed__"


def identity_extractor() -> Callable[[str], str]:
    return lambda text: text


def suffix_extractor(delimiter: str) -> Callable[[str], str]:
    if not delimiter:
        raise ConfigError("suffix extractor requires a non-empty delimiter")

    def extract(text: str) -> str:
        _, sep, tail = text.rpartition(delimiter)
        return tail.strip() if sep else UNPARSED

    return extract


def regex_extractor(pattern: str, group: int = 1) -> Callable[[str], str]:
    try:
        compiled = re.compile(pattern)
    except re.error as exc:
        raise ConfigError(f"bad extraction regex {pattern!r}: {exc}") from exc
    if compiled.groups < group:
        group = 0

    def extract(text: str) -> str:
        match = compiled.search(text)
        return match.group(group) if match else UNPARSED

    return extract


def parse_extractor(spec: str) -> Callable[[str], str]:
    """Extractor syntax: ``identity``, ``suffix:STR``, or ``regex:PATTERN``."""
    if spec == "identity":
        return identity_extractor()
    name, sep, arg = spec.partition(":")
    if not sep:
        raise ConfigError(f"unknown extractor {spec!r}")
    if name == "suffix":
        return suffix_extractor(arg)
    if name == "regex":
        return regex_extractor(arg)
    raise ConfigError(f"unknown extractor {name!r}")


@dataclass(frozen=True)
class VoteResult:
    winner: str | None             # None when every label failed to parse
    weights: dict[str, float]      # per-label total vote weight
    total_mass: dict[str, float]   # per-label summed sequence probability


def majority_vote(labeled: Sequence[tuple[str, float]], weighting: str = "uniform") -> VoteResult:
    """Vote over (label, sequence probability) pairs.

    Uniform weighting counts each sequence once; probability weighting uses
    the sequence mass. Ties break by larger total mass, then by the
    lexicographically smallest label.
    """
    if not labeled:
        raise ConfigError("majority_vote needs at least one labeled sequence")
    if weighting not in ("uniform", "prob"):
        raise ConfigError(f"unknown weighting {weighting!r}")
    use_mass = weighting != "uniform"

    weights: dict[str, float] = {}
    total_mass: dict[str, float] = {}
    for label, q in labeled:
        weights[label] = weights.get(label, 0.0) + (q if use_mass else 1.0)
        total_mass[label] = total_mass.get(label, 0.0) + q

    contenders = [label for label in weights if label != UNPARSED]
    winner = None
    if contenders:
        winner = min(contenders, key=lambda lb: (-weights[lb], -total_mass[lb], lb))
    return VoteResult(winner=winner, weights=weights, total_mass=total_mass)
