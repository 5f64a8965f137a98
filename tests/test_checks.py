import numpy as np
import pytest

from smfv.checks import ALL_CHECKS, check_flux_zero_sum, check_jacobian_fd


@pytest.mark.parametrize("seed", [0, 14, 18, 31])
def test_flux_zero_sum_seeds(seed):
    # the generator run_property_suite hands this check for the given seed
    rng = np.random.default_rng([seed, ALL_CHECKS.index(check_flux_zero_sum)])
    result = check_flux_zero_sum(rng)
    assert result.passed, result


@pytest.mark.parametrize("check", [c for c in ALL_CHECKS if c is not check_jacobian_fd],
                         ids=lambda c: c.__name__)
def test_check_passes_with_the_1d_system(check, system_1d):
    # every sampled property, the 1D experiments' coefficients among the
    # systems drawn; the Jacobian check has acceptance criterion 9
    rng = np.random.default_rng([0, ALL_CHECKS.index(check)])
    result = check(rng, extra_system=system_1d)
    assert result.passed, result
