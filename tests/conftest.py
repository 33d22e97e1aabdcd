import pytest

from invwalk import chain


@pytest.fixture(autouse=True)
def empty_moment_memo():
    """Each test starts with no stored jump moments, so moments stepped by
    the real kernel never answer a test that patches ``chain._orbit_step``
    or ``chain.quotient``, and test order changes no result."""
    chain._memo.clear()
