import pytest

from testkit import line_anchors


@pytest.fixture
def anchors100():
    return line_anchors(100)
