import random
import sys

import pytest

from spincover.cover import parity_operator
from spincover.ptgroup import time_reversal_operator


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def parity():
    return parity_operator()


@pytest.fixture
def treverse():
    return time_reversal_operator()


@pytest.fixture
def int_digit_limit():
    """Python's default int <-> str digit limit, pinned for the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python (before 3.10.7) has no int <-> str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
