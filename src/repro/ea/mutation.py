"""Mutation operators.

The paper characterises its mutation operator by the *mutation rate* ``k``:
the number of genes changed per offspring (the x-axis of Figs. 12–15 is
``k = 1, 3, 5``).  A mutation picks ``k`` distinct gene positions uniformly
at random over the whole genotype (function genes, input-mux genes and the
output-select gene) and replaces each with a different random value from
its alphabet, so every mutation is effective.

The operator also reports which *function* genes changed, because only
those require a partial reconfiguration — the quantity that drives
evolution time in the intrinsic-evolution timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from repro.array.genotype import Genotype, GenotypeSpec

__all__ = [
    "MutationResult",
    "mutate",
    "mutate_population",
    "population_mutator",
    "PopulationMutator",
]


@dataclass
class MutationResult:
    """Outcome of one mutation.

    Attributes
    ----------
    genotype:
        The mutated offspring genotype (a new object; the parent is unchanged).
    mutated_indices:
        Flat gene indices that were changed.
    changed_pe_positions:
        (row, col) positions whose function gene changed — i.e. the PEs the
        reconfiguration engine must rewrite to place this offspring.
    """

    genotype: Genotype
    mutated_indices: List[int] = field(default_factory=list)
    changed_pe_positions: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def n_reconfigurations(self) -> int:
        """Number of per-PE partial reconfigurations required."""
        return len(self.changed_pe_positions)


def mutate(
    parent: Genotype,
    n_mutations: int,
    rng: Union[int, np.random.Generator, None] = None,
) -> MutationResult:
    """Create an offspring by mutating ``n_mutations`` genes of ``parent``.

    The single-offspring case of :class:`PopulationMutator`, so one
    implementation owns the RNG draw order of every mutation.

    Parameters
    ----------
    parent:
        Parent genotype (not modified).
    n_mutations:
        The mutation rate ``k``: number of distinct genes to change.  Must
        be between 1 and the total gene count.
    rng:
        Seed or :class:`numpy.random.Generator`.

    Returns
    -------
    MutationResult
        The offspring and the bookkeeping needed by the timing model.
    """
    return mutate_population(parent, n_mutations, rng, 1)[0]


#: Span of one ``next_uint32`` word, and the mask of a product's low word.
_WORD_SPAN = 1 << 32
_LOW_WORD = _WORD_SPAN - 1

#: ``Generator.choice`` switches from Floyd's algorithm to a tail shuffle of
#: ``arange(n)`` when ``n`` exceeds this and ``k > n // 50``.
_TAIL_SHUFFLE_MIN_POPULATION = 10000


def _bounded(next_word: Callable[[], int], bound: int) -> int:
    """One uniform draw from ``[0, bound)``, ``2 <= bound < 2**32``, as numpy makes it.

    Lemire's multiply-shift on a ``next_uint32`` word: the high word of
    ``word * bound`` is the value, and a product whose low word falls under
    ``2**32 % bound`` is rejected and redrawn.  This is numpy's
    ``random_bounded_uint64`` for a 32-bit range (``Generator.integers``
    and the draws inside ``Generator.choice``).
    """
    product = next_word() * bound
    if (product & _LOW_WORD) < bound:  # only then can it fall under the threshold
        threshold = _WORD_SPAN % bound
        while (product & _LOW_WORD) < threshold:
            product = next_word() * bound
    return product >> 32


def _choose(next_word: Callable[[], int], n: int, k: int) -> List[int]:
    """Sorted ``Generator.choice(n, size=k, replace=False)``, replayed from ``next_word``."""
    if n > _TAIL_SHUFFLE_MIN_POPULATION and k > n // 50:
        # Tail shuffle: swap positions n-1 down to max(n-k, 1) of arange(n).
        swapped: Dict[int, int] = {}
        for i in range(n - 1, max(n - k, 1) - 1, -1):
            j = _bounded(next_word, i + 1)
            swapped[i], swapped[j] = swapped.get(j, j), swapped.get(i, i)
        return sorted(swapped.get(i, i) for i in range(n - k, n))
    # Floyd's algorithm: the draw for j is over [0, j]; j == 0 consumes no word.
    chosen = set()
    for j in range(n - k, n):
        value = _bounded(next_word, j + 1) if j else 0
        chosen.add(j if value in chosen else value)
    # numpy then shuffles the k picks; the order is sorted away, the words are not.
    for i in range(k - 1, 0, -1):
        _bounded(next_word, i + 1)
    return sorted(chosen)


class PopulationMutator:
    """The mutation operator, over flat gene vectors.

    Every offspring of every generation is built here (:func:`mutate` and
    :func:`mutate_population` delegate to it).  Each offspring picks its
    ``k`` gene positions as ``Generator.choice(n_genes, k, replace=False)``
    would, then draws one new value per changed gene in ascending position
    order as ``rng.integers(0, alphabet - 1)`` would; this draw order is
    pinned by ``tests/core/test_golden_trajectories.py``.

    Those draws are not made through ``Generator.choice`` and
    ``Generator.integers``.  :meth:`mutate_flat` takes the random words a
    call needs in one ``rng.integers(..., dtype=np.uint32)`` block and
    replays numpy's bounded draws over them in plain Python ints
    (:func:`_bounded`, :func:`_choose`).  The block is the fewest words the
    call can consume; a draw past it (after a Lemire rejection, or when a
    wordless gene the block counted on is not among the picks) takes one
    more word at a time, so the generator ends exactly where the per-draw
    calls would have left it.  ``tests/ea/test_mutation_stream.py`` checks
    that word for word; ``docs/determinism.md`` states the contract.

    All children of one call share one ``(m, n_genes)`` uint8 block; each
    offspring genotype holds views of its own row and skips the validating
    constructor, since mutated values are inside their alphabets by
    construction.

    Instances are cheap and stateless apart from the precomputed per-spec
    tables; one per :class:`~repro.array.genotype.GenotypeSpec` is cached
    by :func:`mutate_population`.
    """

    def __init__(self, spec: GenotypeSpec) -> None:
        self.spec = spec
        self.n_genes = spec.n_genes
        self.n_pes = spec.n_pes
        self.rows = spec.rows
        self.cols = spec.cols
        #: Alphabet size per flat gene index (plain list: int indexing is hot).
        self.alphabets: List[int] = [
            spec.gene_alphabet_size(index) for index in range(spec.n_genes)
        ]
        #: Genes whose new value needs no random word (alphabet of 1 or 2).
        self._wordless_genes = sum(alphabet <= 2 for alphabet in self.alphabets)
        #: (row, col) of each function gene.
        self._positions: List[Tuple[int, int]] = [
            divmod(index, spec.cols) for index in range(spec.n_pes)
        ]

    # ------------------------------------------------------------------ #
    def to_flat(self, genotype: Genotype) -> np.ndarray:
        """Flat uint8 gene vector of ``genotype`` (the ``Genotype.to_flat`` layout)."""
        flat = np.empty(self.n_genes, dtype=np.uint8)
        n_pes, rows, cols = self.n_pes, self.rows, self.cols
        flat[:n_pes] = genotype.function_genes.reshape(-1)
        flat[n_pes : n_pes + rows] = genotype.west_mux
        flat[n_pes + rows : n_pes + rows + cols] = genotype.north_mux
        flat[-1] = genotype.output_select
        return flat

    def _min_words(self, n_mutations: int) -> int:
        """The fewest ``next_uint32`` words one offspring can consume."""
        n, k = self.n_genes, n_mutations
        if n > _TAIL_SHUFFLE_MIN_POPULATION and k > n // 50:
            picks = min(k, n - 1)
        else:
            picks = (k - (k == n)) + (k - 1)  # Floyd (j == 0 is free), then the shuffle
        return picks + max(0, k - self._wordless_genes)

    def mutate_flat(
        self, parent_flat: np.ndarray, n_mutations: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Union["MutationResult", List["MutationResult"]]]:
        """Offspring of flat source vectors; returns (children, results).

        ``parent_flat`` is one gene vector or an ``(m, n_genes)`` stack of
        them.  Each source gets one child, in row order: ``n_mutations``
        distinct gene positions picked uniformly at random, each replaced
        with a *different* value from its alphabet, so every mutation is
        effective (genes with a one-value alphabet, as on 1x1 arrays, are
        left unchanged).  A stack returns the ``(m, n_genes)`` uint8 child
        block and a list of results; one vector returns its child row and
        one result.
        """
        n, k = self.n_genes, n_mutations
        if not 1 <= k <= n:
            raise ValueError(f"n_mutations must be in [1, {n}], got {k}")
        sources = np.asarray(parent_flat)
        if sources.ndim not in (1, 2) or sources.shape[-1] != n:
            raise ValueError(
                f"expected a ({n},) gene vector or an (m, {n}) stack, got {sources.shape}"
            )
        block = np.array(sources, dtype=np.uint8, order="C", ndmin=2)
        m = len(block)
        words = rng.integers(0, _WORD_SPAN, size=m * self._min_words(k), dtype=np.uint32)
        next_word = chain(
            words.tolist(),
            iter(lambda: int(rng.integers(0, _WORD_SPAN, dtype=np.uint32)), None),
        ).__next__

        spec, rows, cols = self.spec, self.rows, self.cols
        alphabets, positions, n_pes = self.alphabets, self._positions, self.n_pes
        functions = block[:, :n_pes].reshape(m, rows, cols)
        west = block[:, n_pes : n_pes + rows]
        north = block[:, n_pes + rows : n_pes + rows + cols]
        genes = memoryview(block).cast("B")  # int reads and writes into the block
        results: List[MutationResult] = []
        for row in range(m):
            base = row * n
            mutated = _choose(next_word, n, k)
            changed_pe_positions: List[Tuple[int, int]] = []
            for index in mutated:
                alphabet = alphabets[index]
                if alphabet <= 1:
                    continue  # degenerate alphabet (1x1 arrays): nothing to change
                # Draw a *different* value so every mutation is effective; a
                # two-value alphabet draws from [0, 1) and consumes no word.
                value = _bounded(next_word, alphabet - 1) if alphabet > 2 else 0
                genes[base + index] = value + (value >= genes[base + index])
                if index < n_pes:
                    changed_pe_positions.append(positions[index])
            genotype = object.__new__(Genotype)
            genotype.spec = spec
            genotype.function_genes = functions[row]
            genotype.west_mux = west[row]
            genotype.north_mux = north[row]
            genotype.output_select = genes[base + n - 1]
            results.append(MutationResult(genotype, mutated, changed_pe_positions))
        if sources.ndim == 1:
            return block[0], results[0]
        return block, results

    def offspring(
        self,
        parent: Genotype,
        n_mutations: int,
        rng: np.random.Generator,
        n_offspring: int,
    ) -> List["MutationResult"]:
        """``n_offspring`` independent mutations of ``parent``, in draw order."""
        parents = self.to_flat(parent)[None].repeat(n_offspring, axis=0)
        return self.mutate_flat(parents, n_mutations, rng)[1]


#: One mutator per genotype spec (specs are tiny frozen dataclasses).
_MUTATORS: Dict[GenotypeSpec, PopulationMutator] = {}


def population_mutator(spec: GenotypeSpec) -> PopulationMutator:
    """The shared :class:`PopulationMutator` for ``spec``."""
    mutator = _MUTATORS.get(spec)
    if mutator is None:
        mutator = _MUTATORS[spec] = PopulationMutator(spec)
    return mutator


def mutate_population(
    parent: Genotype,
    n_mutations: int,
    rng: Union[int, np.random.Generator, None],
    n_offspring: int,
) -> List[MutationResult]:
    """A whole generation of offspring in one call.

    Equal to ``[mutate(parent, n_mutations, rng) for _ in
    range(n_offspring)]``, with the per-call genotype plumbing hoisted out
    of the loop.  This is the offspring-construction half of the
    generation step.
    """
    if n_offspring < 1:
        raise ValueError(f"n_offspring must be >= 1, got {n_offspring}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return population_mutator(parent.spec).offspring(parent, n_mutations, rng, n_offspring)
