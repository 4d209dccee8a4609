"""Design-space mapping, snapping, sampling and the neighbor fix."""

import numpy as np
import pytest

from oracles import design_space as two_pass
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
        samples = space.from_unit(rng.random((10, space.dimension)))
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
        snapped = space.snap(space.from_unit(rng.random((20, space.dimension))))
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
        for row in space.from_unit(rng.random((5, space.dimension))):
            expected = [p.snap(v) for p, v in zip(space.parameters, row)]
            np.testing.assert_allclose(space.snap(row), expected, rtol=1e-9)

    def test_snap_clips_out_of_range(self):
        space = make_space()
        snapped = space.snap(np.array([1e-9, 1.0, 1.0]))
        assert space.contains(snapped)


def space_named(name):
    """``toy`` (linear and log columns, unequal grids) or a topology's space."""
    return make_space() if name == "toy" else get_topology(name)().design_space()


SPACES = ["toy", *available_topologies()]


def raw_rows(space, rng, count=4000):
    """Unsnapped rows: uniform draws, every bound, out-of-range values on
    both sides, and the midpoints between neighbouring grid points."""
    lows = np.array([p.low for p in space.parameters])
    highs = np.array([p.high for p in space.parameters])
    steps = np.array([1.0 / (p.grid_points - 1) for p in space.parameters])
    ties = np.minimum(np.arange(64)[:, None] + 0.5, 1.0 / steps) * steps
    return np.vstack([
        space.from_unit(rng.random((count, space.dimension))),
        lows, highs, 0.5 * lows, 2.0 * highs, np.nextafter(lows, 0.0),
        np.nextafter(highs, np.inf),
        two_pass.from_unit(space, ties),
        two_pass.from_unit(space, rng.uniform(-0.5, 1.5, (count, space.dimension))),
    ])


class TestGridTable:
    """The grid tables hold ``from_unit(k * step)`` and its ``to_unit`` for
    every grid index, and the one-pass mappings and the table snap equal
    the two-pass forms of :mod:`oracles.design_space` bit for bit."""

    @pytest.mark.parametrize("name", SPACES)
    def test_every_grid_index(self, name):
        space = space_named(name)
        for column, parameter in enumerate(space.parameters):
            index = np.zeros((parameter.grid_points, space.dimension), dtype=np.intp)
            index[:, column] = np.arange(parameter.grid_points)
            unit = np.zeros((parameter.grid_points, space.dimension))
            unit[:, column] = np.arange(parameter.grid_points) * (
                1.0 / (parameter.grid_points - 1)
            )
            values = space.grid_values(index)
            expected = two_pass.from_unit(space, unit)
            assert values[:, column].tobytes() == expected[:, column].tobytes()
            assert values.tobytes() == space.from_unit(unit).tobytes()
            units = space.grid_units(index)
            assert units.tobytes() == two_pass.to_unit(space, values).tobytes()
            assert units.tobytes() == space.to_unit(values).tobytes()
            # Each grid value snaps to its own index, so snapping a snapped
            # row (or reading its value back from the table) changes nothing.
            assert np.array_equal(space.grid_index(values), index)

    @pytest.mark.parametrize("name", SPACES)
    def test_mappings_and_snap_match_the_two_pass_forms(self, name):
        space = space_named(name)
        rng = np.random.default_rng(5)
        rows = raw_rows(space, rng)
        assert space.snap(rows).tobytes() == two_pass.snap(space, rows).tobytes()
        assert space.to_unit(rows).tobytes() == two_pass.to_unit(space, rows).tobytes()
        unit = rng.uniform(-0.5, 1.5, (1000, space.dimension))
        assert space.from_unit(unit).tobytes() == two_pass.from_unit(space, unit).tobytes()
        for row in rows[::97]:
            assert space.snap(row).tobytes() == two_pass.snap(space, row).tobytes()
            assert space.to_unit(row).tobytes() == two_pass.to_unit(space, row).tobytes()

    @pytest.mark.parametrize("name", SPACES)
    def test_samplers_match_snapped_two_pass_draws(self, name):
        space = space_named(name)
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        drawn = space.sample(rng, 500)
        raw = two_pass.from_unit(space, twin.random((500, space.dimension)))
        expected = two_pass.snap(space, raw)
        assert drawn.tobytes() == expected.tobytes()
        center = drawn[0]
        ball = space.grid_values(space.sample_ball_index(rng, center, 0.1, 500))
        offsets = twin.uniform(-0.1, 0.1, size=(500, space.dimension))
        unit = np.clip(two_pass.to_unit(space, center) + offsets, 0.0, 1.0)
        assert ball.tobytes() == two_pass.snap(space, two_pass.from_unit(space, unit)).tobytes()

    def test_non_positive_log_value_rejected(self):
        space = make_space()
        with pytest.raises(ValueError):
            space.to_unit(np.array([0.0, 1e-4, 1e-12]))
        with pytest.raises(ValueError):
            two_pass.to_unit(space, np.array([0.0, 1e-4, 1e-12]))


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
        samples = space.grid_values(space.sample_ball_index(rng, center, radius, 200))
        offsets = np.abs(space.to_unit(samples) - space.to_unit(center))
        # Snapping moves a draw by at most half a grid step.
        assert np.all(offsets <= radius + 0.5 * space._grid_steps + 1e-9)

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
