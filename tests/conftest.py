"""Each test loads its fixtures afresh: the load memo starts empty."""

import pytest

from leibxmod import cli


@pytest.fixture(autouse=True)
def _fresh_load_memo():
    cli._last = (None, None, None)
