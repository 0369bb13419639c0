"""Tests for the §4.3 probability model."""

import pytest

from repro.attack import (
    cumulative_success_probability,
    monte_carlo_success_rate,
    paper_example_parameters,
    single_cycle_success_probability,
)
from repro.attack.probability import (
    ProbabilityParameters,
    cycles_to_reach,
)
from repro.errors import ConfigError


class TestAnalyticFormula:
    def test_paper_headline_seven_percent(self):
        """§4.3: equal partitions, 25% victim spray, 100% attacker spray
        -> ~7% per cycle."""
        params = paper_example_parameters()
        p = single_cycle_success_probability(params)
        assert p == pytest.approx(0.0703, abs=0.002)

    def test_paper_ten_cycles_above_half(self):
        p = single_cycle_success_probability(paper_example_parameters())
        assert cumulative_success_probability(p, 10) > 0.5

    def test_formula_matches_long_form(self):
        params = ProbabilityParameters(
            victim_blocks=1000,
            attacker_blocks=1000,
            victim_sprayed=300,
            attacker_sprayed=800,
            physical_blocks=2000,
        )
        f_v, f_a = 300, 800
        expected = (f_v / 2 / 1000) * ((f_v / 2 + f_a) / 2000)
        assert single_cycle_success_probability(params) == pytest.approx(expected)

    def test_scale_invariance(self):
        """The probability depends only on the ratios, not absolute size."""
        small = paper_example_parameters(physical_blocks=4096)
        large = paper_example_parameters(physical_blocks=2 ** 24)
        assert single_cycle_success_probability(small) == pytest.approx(
            single_cycle_success_probability(large)
        )

    def test_more_spray_more_probability(self):
        base = paper_example_parameters()
        bigger = ProbabilityParameters(
            victim_blocks=base.victim_blocks,
            attacker_blocks=base.attacker_blocks,
            victim_sprayed=base.victim_sprayed * 2,
            attacker_sprayed=base.attacker_sprayed,
            physical_blocks=base.physical_blocks,
        )
        assert single_cycle_success_probability(
            bigger
        ) > single_cycle_success_probability(base)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            ProbabilityParameters(0, 1, 0, 0, 1)
        with pytest.raises(ConfigError):
            ProbabilityParameters(10, 10, 11, 0, 20)
        with pytest.raises(ConfigError):
            ProbabilityParameters(10, 10, 0, 11, 20)


class TestCumulative:
    def test_zero_cycles(self):
        assert cumulative_success_probability(0.5, 0) == 0.0

    def test_one_cycle_is_p(self):
        assert cumulative_success_probability(0.07, 1) == pytest.approx(0.07)

    def test_monotone_in_cycles(self):
        values = [cumulative_success_probability(0.07, n) for n in range(1, 30)]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ConfigError):
            cumulative_success_probability(1.5, 2)
        with pytest.raises(ConfigError):
            cumulative_success_probability(0.5, -1)

    def test_cycles_to_reach_half(self):
        p = single_cycle_success_probability(paper_example_parameters())
        assert cycles_to_reach(p, 0.5) == 10

    def test_cycles_to_reach_validation(self):
        with pytest.raises(ConfigError):
            cycles_to_reach(0.0, 0.5)


class TestMonteCarlo:
    def test_agrees_with_analytic(self):
        params = paper_example_parameters()
        analytic = single_cycle_success_probability(params)
        simulated = monte_carlo_success_rate(params, trials=200_000, seed=1)
        assert simulated == pytest.approx(analytic, rel=0.05)

    def test_seed_reproducibility(self):
        params = paper_example_parameters()
        a = monte_carlo_success_rate(params, trials=10_000, seed=7)
        b = monte_carlo_success_rate(params, trials=10_000, seed=7)
        assert a == b

    def test_zero_spray_zero_success(self):
        params = ProbabilityParameters(
            victim_blocks=100,
            attacker_blocks=100,
            victim_sprayed=0,
            attacker_sprayed=0,
            physical_blocks=200,
        )
        assert monte_carlo_success_rate(params, trials=10_000, seed=1) == 0.0

    def test_trials_validated(self):
        with pytest.raises(ConfigError):
            monte_carlo_success_rate(paper_example_parameters(), trials=0)


class TestCyclesToReachClosedForm:
    """The closed-form cycles_to_reach must keep the exact boundary
    semantics of the linear search it replaced."""

    @staticmethod
    def _linear_reference(per_cycle, target):
        cycles = 1
        while cumulative_success_probability(per_cycle, cycles) < target:
            cycles += 1
        return cycles

    def test_matches_linear_search_randomized(self):
        import random

        rng = random.Random(42)
        for _ in range(500):
            per_cycle = rng.uniform(1e-4, 1.0)
            target = rng.uniform(1e-4, 1.0 - 1e-9)
            assert cycles_to_reach(per_cycle, target) == self._linear_reference(
                per_cycle, target
            ), (per_cycle, target)

    def test_exact_boundaries(self):
        # Targets that land exactly on a cumulative value: the boundary
        # cycle itself must be returned, never one past it.
        for per_cycle in (0.5, 0.25, 0.07):
            for cycles in (1, 2, 3, 10):
                target = cumulative_success_probability(per_cycle, cycles)
                if not 0 < target < 1:
                    continue
                assert cycles_to_reach(per_cycle, target) == cycles

    def test_certain_success_is_one_cycle(self):
        assert cycles_to_reach(1.0, 0.999999) == 1

    def test_unreachable_target_raises(self):
        with pytest.raises(ConfigError):
            cycles_to_reach(1e-12, 0.999999999)


class TestGridHelpers:
    """Vectorized closed-form helpers agree elementwise with the scalar
    functions on these inputs.  They are not interchangeable everywhere:
    on 2 of the 80 points of ``examples/specs/probability_grid.json``,
    ``np.power`` and Python's ``**`` differ in the last bit of
    ``cumulative``, which is why the ``probability_grid`` kind keeps the
    helpers."""

    def test_grid_single_cycle_matches_scalar(self):
        import numpy as np

        from repro.attack.probability import grid_single_cycle

        cases = [
            paper_example_parameters(),
            paper_example_parameters(4096),
            ProbabilityParameters(
                victim_blocks=1000, attacker_blocks=1000,
                victim_sprayed=300, attacker_sprayed=800,
                physical_blocks=2000,
            ),
        ]
        grid = grid_single_cycle(
            np.array([c.victim_blocks for c in cases]),
            np.array([c.victim_sprayed for c in cases]),
            np.array([c.attacker_sprayed for c in cases]),
            np.array([c.physical_blocks for c in cases]),
        )
        for index, case in enumerate(cases):
            assert float(grid[index]) == single_cycle_success_probability(case)

    def test_grid_cumulative_matches_scalar(self):
        import numpy as np

        from repro.attack.probability import grid_cumulative

        per_cycle = np.array([0.07, 0.5, 0.001, 0.97])
        cycles = np.array([10, 3, 100, 1])
        grid = grid_cumulative(per_cycle, cycles)
        for index in range(len(per_cycle)):
            assert float(grid[index]) == cumulative_success_probability(
                float(per_cycle[index]), int(cycles[index])
            )

    def test_grid_cycles_to_target_matches_scalar(self):
        import random

        import numpy as np

        from repro.attack.probability import grid_cycles_to_target

        rng = random.Random(3)
        per_cycle = np.array([rng.uniform(1e-4, 1.0) for _ in range(200)])
        target = np.array([rng.uniform(1e-4, 1 - 1e-9) for _ in range(200)])
        grid = grid_cycles_to_target(per_cycle, target)
        for index in range(len(per_cycle)):
            assert int(grid[index]) == cycles_to_reach(
                float(per_cycle[index]), float(target[index])
            )

    def test_grid_cycles_to_target_validation(self):
        import numpy as np

        from repro.attack.probability import grid_cycles_to_target

        with pytest.raises(ConfigError):
            grid_cycles_to_target(np.array([0.0]), np.array([0.5]))
        with pytest.raises(ConfigError):
            grid_cycles_to_target(np.array([0.5]), np.array([1.0]))
        with pytest.raises(ConfigError):
            grid_cycles_to_target(np.array([1e-12]), np.array([1 - 1e-12]))
