import pytest

from cold_path import clear_caches


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts with crtk's per-process caches empty, whatever ran before it."""
    clear_caches()
