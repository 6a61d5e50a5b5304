"""Single Processing Element model.

The systolic-array simulator in :mod:`repro.array.systolic_array` evaluates
whole candidate circuits with vectorised operations and does not build PE
objects; this class exists for the layers that reason about *individual*
reconfigurable regions — the fabric / partial-bitstream model, fault
injection, and fine-grained unit tests.

"Every PE within the array matrix can perform one operation with one or two
inputs.  Inputs are either the west (W) or the north (N) sides, or both,
and data is always propagated, after a register that allows pipelined
execution, to both the south (S) and east (E) outputs." (paper §III.A)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.array.pe_library import FUNCTION_ARITY, N_FUNCTIONS, PEFunction, apply_function

__all__ = ["ProcessingElement"]


@dataclass
class ProcessingElement:
    """One reconfigurable PE at a fixed array position.

    Attributes
    ----------
    row, col:
        Position within the array mesh.
    function_gene:
        Currently configured function (``0..15``).
    faulty:
        When ``True`` the PE's output is garbage (the paper's PE-level fault
        model: a dummy PE "generates a random value in its output").
    fault_rng:
        Generator used to draw the garbage output of a faulty PE.
    """

    row: int
    col: int
    function_gene: int = int(PEFunction.IDENTITY_W)
    faulty: bool = False
    fault_rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.row < 0 or self.col < 0:
            raise ValueError("PE position must be non-negative")
        self.configure(self.function_gene)

    @property
    def function(self) -> PEFunction:
        """The configured function as an enum member."""
        return PEFunction(self.function_gene)

    @property
    def arity(self) -> int:
        """Number of inputs actually consumed by the configured function."""
        return FUNCTION_ARITY[self.function]

    def configure(self, function_gene: int) -> None:
        """Reconfigure the PE with a new function gene.

        This is the functional effect of writing the corresponding partial
        bitstream; the timing cost is accounted by the reconfiguration
        engine, not here.
        """
        function_gene = int(function_gene)
        if not 0 <= function_gene < N_FUNCTIONS:
            raise ValueError(
                f"function gene must be in [0, {N_FUNCTIONS - 1}], got {function_gene}"
            )
        self.function_gene = function_gene

    def inject_fault(self, rng: np.random.Generator) -> None:
        """Mark this PE as permanently damaged (LPD at this position).

        ``rng`` is the seeded generator the garbage output is drawn from
        (normally the owning array's per-position stream), so the stream
        identity is part of the experiment spec.
        """
        self.faulty = True
        self.fault_rng = rng

    def clear_fault(self) -> None:
        """Repair the PE (e.g. after relocation to a spare region)."""
        self.faulty = False
        self.fault_rng = None

    def compute(self, west: np.ndarray, north: np.ndarray) -> np.ndarray:
        """Produce the PE output for the given input planes.

        A healthy PE applies its configured function; a faulty PE returns
        uniformly random pixels of the same shape, uncorrelated with its
        inputs, which is the paper's dummy-PE fault model.  The garbage is
        drawn from :attr:`fault_rng`, which a faulty PE must have.
        """
        west = np.asarray(west, dtype=np.uint8)
        north = np.asarray(north, dtype=np.uint8)
        if west.shape != north.shape:
            raise ValueError(f"input shapes differ: {west.shape} vs {north.shape}")
        if self.faulty:
            if self.fault_rng is None:
                raise ValueError(
                    "a faulty ProcessingElement needs a seeded fault_rng; "
                    "mark it faulty with inject_fault(rng)"
                )
            return self.fault_rng.integers(0, 256, size=west.shape, dtype=np.uint8)
        return apply_function(self.function_gene, west, north)
