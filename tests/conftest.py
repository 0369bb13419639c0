"""Shared fixtures: a small full device stack (DRAM + flash + FTL + NVMe).

The profiles and the stack builder live in :mod:`repro.testkit.fixtures`
so examples and the workload fuzzer share them; this module re-exports
them for the test suite (existing tests import from ``tests.conftest``).
It also registers the ``sleep`` / ``flaky`` scheduler soak kinds, which
the production trial registry does not ship.
"""

import pytest

from repro.testkit.fixtures import (  # noqa: F401  (re-exported fixtures)
    FRAGILE,
    GRANITE,
    SMALL_DRAM,
    SMALL_FLASH,
    build_stack,
)
from repro.testkit.soak import register_soak_kinds

register_soak_kinds()


@pytest.fixture
def stack():
    return build_stack()
