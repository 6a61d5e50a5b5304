"""Population evaluation: bit-exact parity with per-candidate evaluation."""

import numpy as np
import pytest

from repro.array.genotype import Genotype, GenotypeSpec
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.ea.mutation import mutate
from repro.imaging.metrics import sae


@pytest.fixture
def planes(small_image):
    return extract_windows(small_image)


def random_batch(spec, rng, n=9, mutation_rate=3):
    parent = Genotype.random(spec, rng)
    return [parent] + [mutate(parent, mutation_rate, rng).genotype for _ in range(n - 1)]


def sequential_fitness(array, planes, genotypes, reference):
    return [sae(array.process_planes(planes, genotype), reference) for genotype in genotypes]


class TestEvaluatePopulationParity:
    """``evaluate_population`` equals per-candidate ``process_planes`` + ``sae``."""

    def test_matches_sequential_for_mutated_offspring(self, array, spec, planes, rng):
        batch = random_batch(spec, rng)
        reference = planes[4]
        values = array.evaluate_population(planes, batch, reference)
        assert values.tolist() == sequential_fitness(array, planes, batch, reference)

    def test_matches_sequential_for_unrelated_candidates(self, array, spec, planes, rng):
        batch = [Genotype.random(spec, rng) for _ in range(7)]
        reference = planes[0]
        values = array.evaluate_population(planes, batch, reference)
        assert values.tolist() == sequential_fitness(array, planes, batch, reference)

    def test_single_candidate_population(self, array, spec, planes, rng):
        genotype = Genotype.random(spec, rng)
        reference = planes[4]
        values = array.evaluate_population(planes, [genotype], reference)
        assert values.tolist() == sequential_fitness(array, planes, [genotype], reference)

    def test_identity_population(self, array, spec, small_image):
        batch = [Genotype.identity(spec)] * 4
        values = array.evaluate_population(extract_windows(small_image), batch, small_image)
        assert values.tolist() == [0.0] * 4

    def test_faulty_array_consumes_rng_in_candidate_order(self, spec, planes, rng):
        """With faults, population evaluation must draw the same random
        planes in the same order as sequential evaluation would."""
        batch = random_batch(spec, rng, n=6)
        reference = planes[4]

        sequential_array = SystolicArray()
        sequential_array.inject_fault((1, 1), seed=77)
        sequential_array.inject_fault((2, 3), seed=88)
        sequential = sequential_fitness(sequential_array, planes, batch, reference)

        population_array = SystolicArray()
        population_array.inject_fault((1, 1), seed=77)
        population_array.inject_fault((2, 3), seed=88)
        values = population_array.evaluate_population(planes, batch, reference)

        assert values.tolist() == sequential

    def test_rejects_empty_population(self, array, planes):
        with pytest.raises(ValueError, match="at least one"):
            array.evaluate_population(planes, [], planes[4])

    def test_rejects_geometry_mismatch(self, array, planes, rng):
        wrong = Genotype.random(GenotypeSpec(rows=2, cols=2), rng)
        with pytest.raises(ValueError, match="does not match"):
            array.evaluate_population(planes, [wrong], planes[4])
        with pytest.raises(ValueError, match="does not match"):
            array.process_planes(planes, wrong)

    def test_rejects_bad_planes(self, array, spec, rng):
        genotype = Genotype.random(spec, rng)
        reference = np.zeros((8, 8), dtype=np.uint8)
        for evaluate in (
            lambda planes: array.evaluate_population(planes, [genotype], reference),
            lambda planes: array.process_planes(planes, genotype),
        ):
            with pytest.raises(ValueError, match=r"shape \(9, H, W\)"):
                evaluate(np.zeros((4, 8, 8), dtype=np.uint8))
            with pytest.raises(TypeError, match="must be uint8"):
                evaluate(np.zeros((9, 8, 8), dtype=np.int32))


class TestEvaluateBatchParity:
    def test_fitness_values_match_sequential(self, rng):
        """A context's population fitness equals per-candidate fitness."""
        from repro.core.evolution import ArrayEvalContext
        from repro.core.platform import EvolvableHardwarePlatform
        from repro.imaging.images import make_training_pair

        pair = make_training_pair("salt_pepper_denoise", size=24, seed=5,
                                  noise_level=0.15)
        platform = EvolvableHardwarePlatform(n_arrays=3, seed=5)
        context = ArrayEvalContext(platform, 0, pair.training)
        batch = random_batch(platform.spec, rng)

        sequential = [context.fitness(g, pair.reference) for g in batch]
        batched = context.fitness_population(batch, pair.reference)
        assert batched == sequential


class TestSyncFaultsRename:
    def test_public_name_exists(self):
        from repro.core.platform import EvolvableHardwarePlatform

        platform = EvolvableHardwarePlatform(n_arrays=1, seed=0)
        platform.acb(0).sync_faults()  # public API, no warning

    def test_deprecated_alias_removed(self):
        from repro.core.platform import EvolvableHardwarePlatform

        acb = EvolvableHardwarePlatform(n_arrays=1, seed=0).acb(0)
        assert not hasattr(acb, "_sync_faults")
