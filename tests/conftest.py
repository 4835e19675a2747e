import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from helpers import (GRAPH_ARGS, build_test_pool,  # noqa: E402
                     four_way_intersection)

from trafficforge import road_graph  # noqa: E402


@pytest.fixture(scope="session")
def intersection_graph():
    return road_graph.build_graph(four_way_intersection(), **GRAPH_ARGS)


@pytest.fixture(scope="session")
def profile_pool():
    return build_test_pool(seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
