"""Design-space mapping, snapping, sampling and the neighbor fix."""

import numpy as np
import pytest

from repro.circuits.topologies import available_topologies, get_topology
from repro.core.design_space import DesignSpace, Parameter


def make_space():
    return DesignSpace(
        [
            Parameter("w", 1e-6, 1e-4, grid_points=33, log_scale=True, unit="m"),
            Parameter("i", 1e-6, 1e-3, grid_points=17, log_scale=True, unit="A"),
            Parameter("c", 0.5e-12, 5e-12, grid_points=9, unit="F"),
        ]
    )


class TestUnitCubeMapping:
    def test_round_trip(self):
        space = make_space()
        rng = np.random.default_rng(0)
        samples = space.sample(rng, 10, snap=False)
        recovered = space.from_unit(space.to_unit(samples))
        np.testing.assert_allclose(recovered, samples, rtol=1e-10)

    def test_batch_matches_per_row(self):
        space = make_space()
        rng = np.random.default_rng(1)
        samples = space.sample(rng, 6)
        batch_units = space.to_unit(samples)
        for k in range(len(samples)):
            np.testing.assert_allclose(batch_units[k], space.to_unit(samples[k]))

    def test_matches_parameter_scalar_mapping(self):
        space = make_space()
        vector = np.array([3e-5, 2e-5, 2e-12])
        expected = [p.to_unit(v) for p, v in zip(space.parameters, vector)]
        np.testing.assert_allclose(space.to_unit(vector), expected, rtol=1e-12)


class TestSnapping:
    def test_snap_idempotent(self):
        space = make_space()
        rng = np.random.default_rng(2)
        snapped = space.snap(space.sample(rng, 20, snap=False))
        np.testing.assert_allclose(space.snap(snapped), snapped, rtol=1e-9)

    @pytest.mark.parametrize("topology", available_topologies())
    def test_snap_is_bitwise_idempotent_on_every_topology(self, topology):
        # Skipping a second snap of an already-snapped row is only
        # trajectory-neutral if snap(snap(x)) == snap(x) bit for bit.
        space = get_topology(topology)().design_space()
        rng = np.random.default_rng(4)
        sampled = space.sample(rng, 20000)
        drawn = space.snap(space.from_unit(rng.random((20000, space.dimension))))
        for snapped in (sampled, drawn):
            assert space.snap(snapped).tobytes() == snapped.tobytes()

    def test_snap_matches_parameter_scalar_snap(self):
        space = make_space()
        rng = np.random.default_rng(3)
        for row in space.sample(rng, 5, snap=False):
            expected = [p.snap(v) for p, v in zip(space.parameters, row)]
            np.testing.assert_allclose(space.snap(row), expected, rtol=1e-9)

    def test_snap_clips_out_of_range(self):
        space = make_space()
        snapped = space.snap(np.array([1e-9, 1.0, 1.0]))
        assert space.contains(snapped)


class TestSampling:
    def test_sample_shape_and_bounds(self):
        space = make_space()
        rng = np.random.default_rng(4)
        samples = space.sample(rng, 100)
        assert samples.shape == (100, 3)
        assert all(space.contains(row) for row in samples)

    def test_sample_ball_respects_radius(self):
        space = make_space()
        rng = np.random.default_rng(5)
        center = space.snap(np.array([1e-5, 1e-4, 2e-12]))
        radius = 0.1
        samples = space.sample_ball(rng, center, radius, 200, snap=False)
        offsets = np.abs(space.to_unit(samples) - space.to_unit(center))
        assert np.all(offsets <= radius + 1e-9)

    def test_sample_reproducible_under_seed(self):
        space = make_space()
        one = space.sample(np.random.default_rng(42), 8)
        two = space.sample(np.random.default_rng(42), 8)
        np.testing.assert_array_equal(one, two)


class TestValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace([Parameter("a", 0, 1), Parameter("a", 0, 1)])

    def test_log_scale_requires_positive_bounds(self):
        with pytest.raises(ValueError):
            Parameter("a", -1.0, 1.0, log_scale=True)

    def test_size_accounting(self):
        space = make_space()
        assert space.size() == 33 * 17 * 9
        assert space.log10_size() == pytest.approx(np.log10(33 * 17 * 9))

    def test_dict_round_trip(self):
        space = make_space()
        vector = np.array([2e-5, 5e-5, 1e-12])
        assert np.allclose(space.to_vector(space.to_dict(vector)), vector)
