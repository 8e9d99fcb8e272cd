"""Shared fixtures.

`cold_caches` serves the tests that observe counting work (profile rows
built, tables filled, routines called): a memoized count, profile or base
table would hide that work, so such a test starts from empty memos and
leaves none behind.  With it the test passes alone and in any order.
"""
import pytest

from kohnspec import clear_caches


@pytest.fixture
def cold_caches():
    clear_caches()
    yield
    clear_caches()
