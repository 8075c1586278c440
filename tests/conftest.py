"""Shared test fixtures."""
import sys

import pytest


@pytest.fixture
def default_int_digit_limit():
    """Pin Python's int-string conversion limit to its default, 4,300
    digits, for a test that reads or prints numbers across it; the
    interpreter's own limit (PYTHONINTMAXSTRDIGITS) is restored after."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(old)
