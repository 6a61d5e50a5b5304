"""The fault-injection RNG determinism contract.

Every random draw on a fault path must come from a seeded stream whose
identity is recoverable from the experiment spec: an explicit seed, or a
documented derivation from one.  This suite enforces the contract two
ways — a source scan proving no fault path can reach an unseeded
``np.random.default_rng()`` fallback, and behavioural tests exercising
each fixed call site (``ProcessingElement.inject_fault``/``compute``,
``FpgaFabric.corrupt_region``, ``SystolicArray.inject_fault``,
``FaultInjector``, ``ExternalMemory.corrupt``).
"""

from pathlib import Path

import numpy as np
import pytest

from repro.array.processing_element import ProcessingElement
from repro.array.systolic_array import SystolicArray
from repro.core.platform import EvolvableHardwarePlatform
from repro.fpga.fabric import FpgaFabric, RegionAddress
from repro.fpga.faults import FaultInjector
from repro.soc.memory import ExternalMemory, MemoryRegion

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_no_unseeded_default_rng_anywhere_in_src():
    """No source file may construct an argument-less (OS-entropy) generator.

    ``default_rng(rng)``/``default_rng(seed)`` pass-throughs are fine —
    they are seeded by the caller; the banned pattern is the empty-call
    fallback that made fault behaviour irreproducible
    (``processing_element.py``, ``fabric.py`` and friends before the fix).

    Enforced by the ``RNG001`` contract rule (:mod:`repro.lint`), which
    replaced the original regex scan: the AST walk is alias-aware, so
    ``from numpy.random import default_rng as rng_fn; rng_fn()`` — which
    the regex missed — is the same violation.  No baseline: this rule
    admits zero acknowledged violations.
    """
    from repro.lint import run_lint

    report = run_lint([str(SRC_ROOT)], rules=["RNG001"], use_baseline=False)
    assert report.errors == []
    assert [f.render() for f in report.findings] == []
    assert [f.render() for f in report.suppressed] == []


class TestProcessingElement:
    def test_inject_fault_requires_an_rng(self):
        pe = ProcessingElement(row=2, col=3)
        with pytest.raises(TypeError):
            pe.inject_fault()
        assert not pe.faulty

    def test_compute_without_fault_rng_raises(self):
        pe = ProcessingElement(row=1, col=1, faulty=True)
        west = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="fault_rng"):
            pe.compute(west, west)

    def test_explicit_rng_does_not_warn(self, recwarn):
        pe = ProcessingElement(row=0, col=0)
        pe.inject_fault(np.random.default_rng(3))
        pe.compute(np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8))
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]


class TestFpgaFabric:
    def test_implicit_seu_bit_choice_is_replayable(self):
        address = RegionAddress(0, 1, 2)

        def flipped_bits(seed):
            fabric = FpgaFabric(n_arrays=1, seed=seed)
            return [fabric.corrupt_region(address) for _ in range(4)]

        assert flipped_bits(7) == flipped_bits(7)
        assert flipped_bits(7) != flipped_bits(8)

    def test_default_seed_is_documented_constant(self):
        # Seedless fabrics share the documented default stream — and warn,
        # because two nominally independent fabrics now draw identically.
        address = RegionAddress(0, 0, 0)
        with pytest.warns(DeprecationWarning):
            a = FpgaFabric(n_arrays=1).corrupt_region(address)
        with pytest.warns(DeprecationWarning):
            b = FpgaFabric(n_arrays=1).corrupt_region(address)
        assert a == b

    def test_platform_threads_its_seed_into_the_fabric(self):
        platform = EvolvableHardwarePlatform(n_arrays=1, seed=123)
        assert platform.fabric.seed == 123

    def test_explicit_rng_still_wins(self):
        address = RegionAddress(0, 0, 0)
        a = FpgaFabric(n_arrays=1, seed=1).corrupt_region(
            address, rng=np.random.default_rng(99)
        )
        b = FpgaFabric(n_arrays=1, seed=2).corrupt_region(
            address, rng=np.random.default_rng(99)
        )
        assert a == b


class TestSystolicArrayStreams:
    def test_inject_without_seed_raises(self):
        array = SystolicArray()
        with pytest.raises(TypeError):
            array.inject_fault((2, 1))
        assert array.faulty_positions == ()

    def test_reset_fault_streams_reproduces_first_run(self):
        array = SystolicArray()
        array.inject_fault((0, 0), seed=5)
        array.inject_fault((3, 2), seed=9)
        first = {
            position: array.fault_rng(position).integers(0, 256, size=16, dtype=np.uint8)
            for position in array.faulty_positions
        }
        array.reset_fault_streams()
        for position, expected in first.items():
            replay = array.fault_rng(position).integers(0, 256, size=16, dtype=np.uint8)
            assert np.array_equal(replay, expected)

    def test_clear_paths_drop_stream_seeds(self):
        array = SystolicArray()
        array.inject_fault((1, 1), seed=4)
        array.clear_fault((1, 1))
        with pytest.raises(KeyError):
            array.fault_seed((1, 1))
        array.inject_fault((1, 1), seed=4)
        array.clear_all_faults()
        with pytest.raises(KeyError):
            array.fault_seed((1, 1))

    def test_reinjection_restarts_the_stream(self):
        array = SystolicArray()
        array.inject_fault((2, 2), seed=7)
        first = array.fault_rng((2, 2)).integers(0, 256, size=32, dtype=np.uint8)
        array.inject_fault((2, 2), seed=7)  # same seed: stream rewinds
        again = array.fault_rng((2, 2)).integers(0, 256, size=32, dtype=np.uint8)
        assert np.array_equal(first, again)

    def test_fault_scenario_replays_on_reused_array(self):
        """The stale-stream bug: re-running a fault scenario on a reused
        array must reproduce the first run once the streams are rewound."""
        from repro.array.genotype import Genotype

        image = np.arange(144, dtype=np.uint8).reshape(12, 12)
        genotype = Genotype.random(rng=np.random.default_rng(3))
        array = SystolicArray()
        array.inject_fault((1, 1), seed=42)
        first = [array.process(image, genotype) for _ in range(3)]
        array.reset_fault_streams()
        second = [array.process(image, genotype) for _ in range(3)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestFaultInjectorAndMemory:
    def test_injector_default_targeting_is_deterministic(self):
        def targets(seed):
            fabric = FpgaFabric(n_arrays=2, seed=seed)
            injector = FaultInjector(fabric)
            return [injector.inject_lpd().address for _ in range(5)]

        assert targets(3) == targets(3)
        assert targets(3) != targets(4)

    def test_memory_corrupt_without_rng_is_deterministic(self):
        def corrupted(key):
            memory = ExternalMemory()
            memory.store(MemoryRegion.FLASH, key, np.zeros((6, 6), dtype=np.uint8))
            memory.corrupt(MemoryRegion.FLASH, key)
            return memory.load(MemoryRegion.FLASH, key)

        assert np.array_equal(corrupted("ref"), corrupted("ref"))
        assert not np.array_equal(corrupted("ref"), corrupted("other"))

    def test_seu_campaign_replays_end_to_end(self):
        """A platform-level SEU campaign driven only by the platform seed
        must flip the same bits in the same regions on every run."""

        def campaign():
            platform = EvolvableHardwarePlatform(n_arrays=2, seed=77)
            records = [platform.fault_injector.inject_seu() for _ in range(6)]
            return [(r.address, r.detail) for r in records]

        assert campaign() == campaign()
