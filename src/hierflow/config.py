"""Tunable settings for the solver stack.

`SolverConfig` holds the two values a caller varies: the CLI's
`--debug-invariants` sets `debug_invariants`, the one switch for the
optional self-checks; `validate_hierarchy` reads
`validator_falsifier_cuts` (the builder's default check, `hierflow
validate` and the benchmark pass the default).  That field stays a
field, not a constant, because it is the only one the validator reads
and the benchmark hands the validator its config positionally.
Constants no caller varies are module constants next to their reader
(`maxflow.C_H`, `sparse_cut.C_6` and `MAX_H`, `cut_matching.C_T`,
`C_KAPPA` and `FALSIFIER_CUTS`, `hierarchy.EXACT_CUT_THRESHOLD`,
`builder.BUILD_RETRIES`); thresholds fixed by the algorithms (the 9h
death level, the 2w admissibility margin) are never configurable.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParamsError


def default_phi(n: int) -> Fraction:
    """Expansion target used when the caller does not pick one."""
    return Fraction(1, 16) if n <= 64 else Fraction(1, 32)


def check_phi(phi: Fraction) -> None:
    """Reject an expansion parameter outside (0, 1)."""
    if not 0 < phi < 1:
        raise BadParamsError(f"phi must lie in (0, 1), got {phi}")


@dataclass
class SolverConfig:
    # scan every residual arc after each relabel/augment and assert the
    # push-relabel level invariants, and snapshot the label vector at each
    # augmentation (slow; meant for m <= 500); also run Tarjan on every
    # graph handed to cut_or_embed or sparse_cut
    debug_invariants: bool = False
    # random cuts tried by validate_hierarchy on large components (the
    # builder's default check and `hierflow validate`; not the exact driver)
    validator_falsifier_cuts: int = 10_000


DEFAULT_CONFIG = SolverConfig()
