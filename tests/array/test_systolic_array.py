"""Tests for the systolic-array functional simulator."""

import numpy as np
import pytest

from repro.array.genotype import Genotype, GenotypeSpec
from repro.array.pe_library import PEFunction
from repro.array.systolic_array import ArrayGeometry, SystolicArray
from repro.array.window import extract_windows
from repro.imaging.images import make_test_image


class TestArrayGeometry:
    def test_paper_floorplan_numbers(self):
        geometry = ArrayGeometry()
        assert geometry.n_pes == 16
        assert geometry.clbs_per_pe == 10          # 2 CLB columns x 5 CLB rows
        assert geometry.total_clbs == 160          # paper §VI.A
        assert geometry.clb_columns == 8

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            ArrayGeometry(rows=0)
        with pytest.raises(ValueError):
            ArrayGeometry(pe_clb_columns=0)

    def test_spec_matches(self):
        geometry = ArrayGeometry(rows=3, cols=5)
        spec = geometry.spec()
        assert (spec.rows, spec.cols) == (3, 5)


class TestProcessing:
    def test_identity_circuit_is_passthrough(self, array, identity_genotype, medium_image):
        out = array.process(medium_image, identity_genotype)
        assert np.array_equal(out, medium_image)

    def test_output_shape_and_dtype(self, array, random_genotype, medium_image):
        out = array.process(medium_image, random_genotype)
        assert out.shape == medium_image.shape
        assert out.dtype == np.uint8

    def test_deterministic(self, array, random_genotype, medium_image):
        a = array.process(medium_image, random_genotype)
        b = array.process(medium_image, random_genotype)
        assert np.array_equal(a, b)

    def test_process_planes_equals_process(self, array, random_genotype, medium_image):
        planes = extract_windows(medium_image)
        assert np.array_equal(
            array.process_planes(planes, random_genotype),
            array.process(medium_image, random_genotype),
        )

    def test_const_max_circuit(self, array, spec, medium_image):
        genotype = Genotype.identity(spec)
        genotype.function_genes[:, -1] = int(PEFunction.CONST_MAX)
        out = array.process(medium_image, genotype)
        assert np.all(out == 255)

    def test_output_select_changes_output(self, array, spec, rng, medium_image):
        genotype = Genotype.random(spec, rng)
        outputs = []
        for select in range(spec.rows):
            genotype.output_select = select
            outputs.append(array.process(medium_image, genotype))
        # At least two of the four east outputs should differ for a random circuit.
        distinct = {out.tobytes() for out in outputs}
        assert len(distinct) >= 2

    def test_west_mux_selects_window_pixel(self, array, spec, medium_image):
        # Identity circuit but west inputs select the north neighbour (offset
        # plane 1): the output is the image shifted down by one row.
        genotype = Genotype.identity(spec)
        genotype.west_mux[:] = 1  # (dy, dx) = (-1, 0)
        out = array.process(medium_image, genotype)
        assert np.array_equal(out[1:], medium_image[:-1])

    def test_geometry_mismatch_rejected(self, medium_image, rng):
        array = SystolicArray(ArrayGeometry(rows=2, cols=2))
        genotype = Genotype.random(GenotypeSpec(4, 4), rng)
        with pytest.raises(ValueError):
            array.process(medium_image, genotype)

    def test_bad_planes_shape_rejected(self, array, random_genotype):
        with pytest.raises(ValueError):
            array.process_planes(np.zeros((8, 4, 4), dtype=np.uint8), random_genotype)

    def test_bad_planes_dtype_rejected(self, array, random_genotype):
        with pytest.raises(TypeError):
            array.process_planes(np.zeros((9, 4, 4), dtype=np.int32), random_genotype)

    def test_process_stream(self, array, identity_genotype):
        images = [make_test_image(16, seed=s) for s in range(3)]
        outputs = list(array.process_stream(images, identity_genotype))
        assert len(outputs) == 3
        for image, output in zip(images, outputs):
            assert np.array_equal(image, output)

    def test_latency(self, array):
        assert array.latency == 7  # 4 + 4 - 1


class TestFaults:
    def test_inject_and_clear(self, array):
        array.inject_fault((1, 2), seed=0)
        assert array.faulty_positions == ((1, 2),)
        assert array.n_faults == 1
        array.clear_fault((1, 2))
        assert array.n_faults == 0

    def test_clear_all(self, array):
        array.inject_fault((0, 0), seed=1)
        array.inject_fault((3, 3), seed=2)
        array.clear_all_faults()
        assert array.faulty_positions == ()

    def test_out_of_range_position(self, array):
        with pytest.raises(ValueError):
            array.inject_fault((4, 0), seed=1)
        with pytest.raises(ValueError):
            array.inject_fault((0, 7), seed=1)

    def test_fault_breaks_identity(self, identity_genotype, medium_image):
        array = SystolicArray()
        array.inject_fault((0, 0), seed=1)
        out = array.process(medium_image, identity_genotype)
        # Row 0 of the chain is corrupted, so the output cannot equal the input.
        assert not np.array_equal(out, medium_image)

    def test_fault_off_output_path_harmless(self, identity_genotype, medium_image):
        # The identity circuit routes row 0 only (output_select = 0) and only
        # uses west inputs, so a fault in another row does not affect the output.
        array = SystolicArray()
        array.inject_fault((3, 0), seed=1)
        out = array.process(medium_image, identity_genotype)
        assert np.array_equal(out, medium_image)

    def test_constructor_faults(self):
        array = SystolicArray(faults={(2, 2): 7})
        assert array.faulty_positions == ((2, 2),)

    def test_faulty_output_varies_between_evaluations(self, identity_genotype, medium_image):
        array = SystolicArray()
        array.inject_fault((0, 3), seed=3)
        genotype = identity_genotype.copy()
        a = array.process(medium_image, genotype)
        b = array.process(medium_image, genotype)
        # The dummy-PE model produces fresh garbage every evaluation.
        assert not np.array_equal(a, b)
