"""Feature flags for the three classic optimizations (Section III).

Each flag corresponds to one column of Table I in the paper:

* ``mixed_layouts``   — "+Layout": let the set optimizer pick bitsets;
  off forces the unsigned-integer-array layout everywhere.
* ``reorder_selections`` — "+Attribute": move selection attributes to the
  front of the global attribute order (pushing selections down *within*
  GHD nodes) and order the rest by the sketch-bound search of
  :mod:`repro.core.bounds`; off keeps the GHD's appearance order.
* ``ghd_selection_pushdown`` — "+GHD": choose the GHD with maximal
  selection depth (pushing selections down *across* GHD nodes).
* ``pipelining``      — "+Pipelining": fuse the root with one
  pipelineable child instead of materializing the child's result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sets.base import SetLayout


@dataclass(frozen=True)
class OptimizationConfig:
    """Which of the paper's classic optimizations are enabled."""

    mixed_layouts: bool = True
    reorder_selections: bool = True
    ghd_selection_pushdown: bool = True
    pipelining: bool = True
    use_ghd: bool = True
    """Decompose queries into GHDs at all. LogicBlox-style engines run the
    generic join over a single node containing every atom."""

    reoptimize: bool = True
    """Per-value re-optimization of cached plans: when a bound
    parameter's sketched selectivity diverges from the cached plan's
    assumption by more than
    :data:`~repro.core.bounds.REOPTIMIZE_FACTOR`, re-plan for that
    value class instead of reusing the structural plan."""

    @property
    def force_layout(self) -> SetLayout | None:
        """Trie set layout override implied by ``mixed_layouts``."""
        return None if self.mixed_layouts else SetLayout.UINT_ARRAY

    @classmethod
    def all_on(cls) -> "OptimizationConfig":
        """EmptyHeaded with every optimization enabled (the paper's EH)."""
        return cls()

    @classmethod
    def all_off(cls) -> "OptimizationConfig":
        """Generic WCOJ baseline: single-node plan, uint arrays only."""
        return cls(
            mixed_layouts=False,
            reorder_selections=False,
            ghd_selection_pushdown=False,
            pipelining=False,
            use_ghd=False,
            reoptimize=False,
        )

    @classmethod
    def baseline_with_ghd(cls) -> "OptimizationConfig":
        """GHD plans but none of the three classic optimizations."""
        return cls(
            mixed_layouts=False,
            reorder_selections=False,
            ghd_selection_pushdown=False,
            pipelining=False,
            use_ghd=True,
            reoptimize=False,
        )

    def but(self, **changes) -> "OptimizationConfig":
        """A copy with some flags changed (ablation helper)."""
        return replace(self, **changes)
