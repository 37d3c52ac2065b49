"""Tunable constants for the solver stack.

Every field has a setter, which copies the config with
`dataclasses.replace`: the CLI sets `c_h`, `c_6`, `max_h` and
`debug_invariants`; `build_hierarchy`'s retry escalation raises
`builder_falsifier_cuts`; tests pick a code path or a budget with
`cmg_early_exit`, `snapshot_labels` and `validator_falsifier_cuts`.
Constants no caller varies are module constants next to their reader
(`cut_matching.C_T` and `C_KAPPA`, `hierarchy.EXACT_CUT_THRESHOLD`,
`builder.BUILD_RETRIES`); thresholds fixed by the algorithms (the 9h
death level, the 2w admissibility margin) are never configurable.
"""
from __future__ import annotations

import math
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
    # exact-flow driver height constant: h = ceil(c_h * n * eta^2 * ln n / phi)
    c_h: float = 8.0
    # sparse-cut height constant: h = ceil(c_6 * eta^4 * ln(n)^7 * kappa * n / phi^2)
    c_6: float = 1.0
    # hard clamp on push-relabel heights inside the sparse-cut subroutine
    max_h: int = 1_000_000
    # scan every residual arc after each relabel/augment and assert the
    # push-relabel level invariants (slow; meant for m <= 500)
    debug_invariants: bool = False
    # also snapshot the full label vector at each augmentation (replay tests)
    snapshot_labels: bool = False
    # certify a cut-matching component as soon as brute force confirms
    # expansion (exact up to hierarchy.EXACT_CUT_THRESHOLD vertices,
    # falsification only above); turning this off runs the full round budget
    cmg_early_exit: bool = True
    # random cuts tried by the in-builder falsifier on large components
    builder_falsifier_cuts: int = 300
    # random cuts tried by validate_hierarchy on large components (the
    # builder's default check and `hierflow validate`; not the exact driver)
    validator_falsifier_cuts: int = 10_000

    def __post_init__(self):
        # the height formulas need finite positive constants
        for name, x in (("c_h", self.c_h), ("c_6", self.c_6)):
            if not (math.isfinite(x) and x > 0):
                raise BadParamsError(f"{name} must be finite and positive, got {x}")
        if self.max_h < 1:
            raise BadParamsError(f"max_h must be at least 1, got {self.max_h}")


DEFAULT_CONFIG = SolverConfig()
