import numpy as np
import pytest

from smfv.checks import ALL_CHECKS, check_flux_zero_sum


@pytest.mark.parametrize("seed", [0, 14, 18, 31])
def test_flux_zero_sum_seeds(seed):
    # the generator run_property_suite hands this check for the given seed
    rng = np.random.default_rng([seed, ALL_CHECKS.index(check_flux_zero_sum)])
    result = check_flux_zero_sum(rng)
    assert result.passed, result
