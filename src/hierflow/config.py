"""Tunable constants for the solver stack.

All knobs default to values that keep the desk-scale test corpus honest:
hard-coded thresholds from the algorithms (the 9h death level, the 2w
admissibility margin) are never configurable, only the constants the
analysis leaves unspecified.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
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
    # cut-matching round constant: t_cmg = ceil(c_t * ln(n*U)^2)
    c_t: float = 2.0
    # matching-player congestion constant: kappa = ceil(2 * c_kappa / phi)
    c_kappa: float = 1.0
    # hard clamp on push-relabel heights inside the sparse-cut subroutine
    max_h: int = 1_000_000
    # scan every residual arc after each relabel/augment and assert the
    # push-relabel level invariants (slow; meant for m <= 500)
    debug_invariants: bool = False
    # also snapshot the full label vector at each augmentation (replay tests)
    snapshot_labels: bool = False
    # certify a cut-matching component as soon as brute force confirms
    # expansion (exact for <= exact_cut_threshold vertices, falsification
    # only above); turning this off runs the full round budget
    cmg_early_exit: bool = True
    # component size up to which expansion is checked exactly, by
    # exhaustive_worst_cut's branch and bound over all 2^(k-1) cuts;
    # larger components only get falsification by sampled cuts
    exact_cut_threshold: int = 16
    # random cuts tried by the in-builder falsifier on large components
    builder_falsifier_cuts: int = 300
    # random cuts tried by validate_hierarchy on large components (the
    # builder's default check and `hierflow validate`; not the exact driver)
    validator_falsifier_cuts: int = 10_000
    # fresh-seed retries before build_hierarchy gives up
    build_retries: int = 5

    def with_(self, **kw) -> "SolverConfig":
        return replace(self, **kw)


DEFAULT_CONFIG = SolverConfig()
