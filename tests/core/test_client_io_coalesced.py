"""Every end-to-end IO test of ``test_client_io.py`` again, on coalesced
runs: the mounts plan up to eight contiguous same-server blocks into one
RPC (``max_coalesce=8``) instead of one block per RPC."""

import pytest

from tests.core.test_client_io import (  # noqa: F401 (collected here again)
    TestCrossClientCoherence,
    TestDurabilityAndCache,
    TestMetadataOps,
    TestPermissions,
    TestRoundtrip,
)
from tests.core.testbed import mounted, small_gfs


@pytest.fixture()
def bed():
    g, cluster, fs, clients = small_gfs()
    m = mounted(g, cluster, node="c0", max_coalesce=8)
    return g, cluster, fs, m
