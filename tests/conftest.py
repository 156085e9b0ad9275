import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """Python's default int <-> str digit limit (4300) for one test; the
    value found before it is set back afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int <-> str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
