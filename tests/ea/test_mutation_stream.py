"""Stream exactness of the mutation operator.

``PopulationMutator.mutate_flat`` replays numpy's bounded draws over one
block of ``next_uint32`` words instead of calling ``Generator.choice`` and
``Generator.integers``.  The oracle below is the per-draw body it replaced:
one ``rng.choice`` of the gene positions per offspring, then one
``rng.integers`` per changed gene in ascending position order.  Both must
produce the same children, the same bookkeeping and leave the bit
generator in the same state after every call.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from repro.array.genotype import Genotype, GenotypeSpec
from repro.ea.mutation import mutate, mutate_population, population_mutator

BIT_GENERATORS = {
    "PCG64": np.random.PCG64,
    "PCG64DXSM": np.random.PCG64DXSM,
    "MT19937": np.random.MT19937,
    "Philox": np.random.Philox,
    "SFC64": np.random.SFC64,
}

SPECS = {
    "1x1": GenotypeSpec(rows=1, cols=1),
    "2x2": GenotypeSpec(rows=2, cols=2),
    "2x5": GenotypeSpec(rows=2, cols=5),
    "3x3": GenotypeSpec(rows=3, cols=3),
    "4x4": GenotypeSpec(rows=4, cols=4),
    "8x8": GenotypeSpec(rows=8, cols=8),
}

N_OFFSPRING = 9


def oracle_mutate_flat(
    spec: GenotypeSpec, parent_flat: np.ndarray, n_mutations: int, rng: np.random.Generator
) -> Tuple[List[int], List[int], List[Tuple[int, int]]]:
    """The per-draw mutation body: (child genes, mutated_indices, changed_pe_positions)."""
    flat = np.asarray(parent_flat, dtype=np.int64).copy()
    indices = rng.choice(spec.n_genes, size=n_mutations, replace=False)
    mutated = sorted(indices.tolist())
    changed: List[Tuple[int, int]] = []
    for index in mutated:
        alphabet = spec.gene_alphabet_size(index)
        if alphabet <= 1:
            continue
        current = int(flat[index])
        new_value = int(rng.integers(0, alphabet - 1))
        if new_value >= current:
            new_value += 1
        flat[index] = new_value
        if index < spec.n_pes:
            changed.append((index // spec.cols, index % spec.cols))
    return flat.tolist(), mutated, changed


def states_equal(a, b) -> bool:
    """Deep equality of two ``bit_generator.state`` values (MT19937 holds an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(states_equal(a[key], b[key]) for key in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def assert_same_state(rng, other) -> None:
    assert states_equal(rng.bit_generator.state, other.bit_generator.state)


def twin_generators(name: str, seed: int, buffered: bool):
    """Two generators in the same state; ``buffered`` leaves a half-word pending."""
    pair = []
    for _ in range(2):
        rng = np.random.Generator(BIT_GENERATORS[name](seed))
        if buffered:
            rng.integers(0, 2**32, dtype=np.uint32)
        pair.append(rng)
    return pair


def random_sources(spec: GenotypeSpec, m: int, seed: int) -> np.ndarray:
    mutator = population_mutator(spec)
    source_rng = np.random.default_rng(seed)
    return np.stack([mutator.to_flat(Genotype.random(spec, source_rng)) for _ in range(m)])


def assert_call_matches(spec, sources, k, rng, oracle_rng):
    """One stacked ``mutate_flat`` call against the oracle, row by row."""
    children, results = population_mutator(spec).mutate_flat(sources, k, rng)
    assert children.shape == sources.shape and children.dtype == np.uint8
    for row, result in enumerate(results):
        genes, mutated, changed = oracle_mutate_flat(spec, sources[row], k, oracle_rng)
        assert children[row].tolist() == genes
        assert result.genotype.to_flat().tolist() == genes
        assert result.mutated_indices == mutated
        assert result.changed_pe_positions == changed
    assert_same_state(rng, oracle_rng)
    return children


@pytest.mark.parametrize("buffered", [False, True], ids=["aligned", "buffered"])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("bit_generator", sorted(BIT_GENERATORS))
def test_stacked_and_chained_calls_match_oracle(bit_generator, spec_name, buffered):
    """Every k: a stack of distinct parents, then a chained k=1 batch from its children."""
    spec = SPECS[spec_name]
    rng, oracle_rng = twin_generators(bit_generator, 2013, buffered)
    for k in range(1, spec.n_genes + 1):
        sources = random_sources(spec, N_OFFSPRING, seed=k)
        children = assert_call_matches(spec, sources, k, rng, oracle_rng)
        assert_call_matches(spec, children[:3], 1, rng, oracle_rng)


@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_population_and_single_offspring_match_oracle(spec_name):
    spec = SPECS[spec_name]
    parent = Genotype.random(spec, np.random.default_rng(5))
    parent_flat = parent.to_flat()
    rng, oracle_rng = twin_generators("PCG64", 77, buffered=False)
    for k in range(1, spec.n_genes + 1):
        batch = mutate_population(parent, k, rng, N_OFFSPRING)
        for result in batch:
            genes, mutated, changed = oracle_mutate_flat(spec, parent_flat, k, oracle_rng)
            assert result.genotype.to_flat().tolist() == genes
            assert (result.mutated_indices, result.changed_pe_positions) == (mutated, changed)
        single = mutate(parent, k, rng)
        genes, mutated, changed = oracle_mutate_flat(spec, parent_flat, k, oracle_rng)
        assert single.genotype.to_flat().tolist() == genes
        assert (single.mutated_indices, single.changed_pe_positions) == (mutated, changed)
        assert_same_state(rng, oracle_rng)


def test_two_level_chain_matches_oracle():
    """The two-level plan: batch 0 from the parent at rate k, then chained k=1 batches."""
    spec = SPECS["4x4"]
    mutator = population_mutator(spec)
    parent_flat = mutator.to_flat(Genotype.random(spec, np.random.default_rng(9)))
    for k in (1, 3, 5):
        rng, oracle_rng = twin_generators("PCG64", 4242 + k, buffered=False)
        sources = np.broadcast_to(parent_flat, (3, spec.n_genes))
        for batch, width in enumerate((3, 3, 2)):
            rate = k if batch == 0 else 1
            sources = assert_call_matches(spec, sources[:width], rate, rng, oracle_rng)


def test_lemire_rejection_takes_one_more_word():
    """default_rng(1056): offspring 7's second Floyd draw (bound 24) reads 2**29.

    Its Lemire low word is 0, under the threshold ``2**32 % 24 == 16``, so
    numpy rejects it and the generation consumes 73 words, not the 72 the
    block pre-draws.
    """
    words = np.random.default_rng(1056).integers(0, 2**32, size=73, dtype=np.uint32)
    assert int(words[7 * 8 + 1]) == 2**29 and (2**32) % 24 == 16
    parent = Genotype.random(SPECS["4x4"], np.random.default_rng(0))
    rng, oracle_rng = twin_generators("PCG64", 1056, buffered=False)
    batch = mutate_population(parent, 3, rng, N_OFFSPRING)
    consumed = np.random.default_rng(1056)
    consumed.integers(0, 2**32, size=73, dtype=np.uint32)
    assert_same_state(rng, consumed)
    parent_flat = parent.to_flat()
    for result in batch:
        genes, mutated, changed = oracle_mutate_flat(SPECS["4x4"], parent_flat, 3, oracle_rng)
        assert result.genotype.to_flat().tolist() == genes
        assert result.mutated_indices == mutated
    assert_same_state(rng, oracle_rng)


def test_every_gene_on_1x1_consumes_no_word_for_the_zero_range_draw():
    """k == n_genes on 1x1: Floyd's first draw is over [0, 0] and the output
    gene's alphabet has one value; neither consumes a word."""
    spec = SPECS["1x1"]
    parent = Genotype.random(spec, np.random.default_rng(3))
    rng, oracle_rng = twin_generators("PCG64", 11, buffered=True)
    result = mutate(parent, spec.n_genes, rng)
    genes, mutated, changed = oracle_mutate_flat(spec, parent.to_flat(), spec.n_genes, oracle_rng)
    assert result.genotype.to_flat().tolist() == genes
    assert result.mutated_indices == mutated == [0, 1, 2, 3]
    assert result.changed_pe_positions == changed == [(0, 0)]
    assert_same_state(rng, oracle_rng)
    # Floyd: bounds 2, 3, 4 (j = 0 is free); shuffle: bounds 4, 3, 2; genes:
    # function and both muxes (the output gene is wordless) -> 9 words.
    counted = twin_generators("PCG64", 11, buffered=True)[0]
    counted.integers(0, 2**32, size=9, dtype=np.uint32)
    assert_same_state(rng, counted)


@pytest.mark.parametrize("k", [204, 205])
def test_tail_shuffle_branch_on_large_arrays(k):
    """Past 10,000 genes ``choice`` tail-shuffles ``arange(n)`` once ``k > n // 50``."""
    spec = GenotypeSpec(rows=100, cols=100)
    assert spec.n_genes // 50 == 204
    sources = random_sources(spec, 2, seed=k)
    rng, oracle_rng = twin_generators("PCG64", 99, buffered=True)
    assert_call_matches(spec, sources, k, rng, oracle_rng)


class TestShapes:
    def test_single_vector_returns_row_and_result(self):
        spec = SPECS["4x4"]
        mutator = population_mutator(spec)
        flat = random_sources(spec, 1, seed=1)[0]
        child, result = mutator.mutate_flat(flat, 3, np.random.default_rng(0))
        assert child.shape == (spec.n_genes,)
        assert child.tolist() == result.genotype.to_flat().tolist()
        assert len(result.mutated_indices) == 3

    def test_children_are_views_of_their_own_row(self):
        spec = SPECS["4x4"]
        mutator = population_mutator(spec)
        children, results = mutator.mutate_flat(
            random_sources(spec, 3, seed=2), 2, np.random.default_rng(0)
        )
        for row, result in enumerate(results):
            assert np.shares_memory(result.genotype.function_genes, children[row])
            result.genotype.validate()

    def test_source_stack_is_not_modified(self):
        spec = SPECS["4x4"]
        sources = random_sources(spec, 4, seed=3)
        snapshot = sources.copy()
        population_mutator(spec).mutate_flat(sources, 5, np.random.default_rng(0))
        assert np.array_equal(sources, snapshot)

    @pytest.mark.parametrize("shape", [(24,), (2, 26), (1, 2, 25)])
    def test_bad_shape_rejected(self, shape):
        mutator = population_mutator(SPECS["4x4"])
        with pytest.raises(ValueError):
            mutator.mutate_flat(np.zeros(shape, dtype=np.uint8), 1, np.random.default_rng(0))
