import warnings

import pytest

from abelianwords import (THUE_MORSE, ContinuedFraction, characteristic_prefix,
                          fixed_point)

pytest_plugins = ["pytester"]

# The hypothesis plugin imports its failing-example patcher while it reports
# a failed test, and that import (through libcst) raises a
# DeprecationWarning, which filterwarnings = error turns into an internal
# error that stops the run.  Imported once here with the warning ignored,
# the module is cached, so a failing hypothesis test is reported like any
# other and the run goes on.  Without libcst the plugin skips the patcher.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def golden():
    """Slope (3 - sqrt 5)/2 = [0; 2, 1, 1, 1, ...]; its characteristic word
    is the Fibonacci word."""
    return ContinuedFraction((2,), (1,))


@pytest.fixture(scope="session")
def sqrt2m1():
    """Slope sqrt(2) - 1 = [0; 2, 2, 2, ...]."""
    return ContinuedFraction((), (2,))


@pytest.fixture(scope="session")
def tm4096():
    return fixed_point(THUE_MORSE, 0, 4096)


@pytest.fixture(scope="session")
def fib4096(golden):
    return characteristic_prefix(golden, 4096)
