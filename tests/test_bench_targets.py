"""Every span target of the traced benchmark must name a function that
exists in eck, so a rename fails here before the traced benchmark reports a
missing target."""

import pytest
from bench_loader import load_bench

tracing = load_bench("tracing")


@pytest.mark.parametrize("path", [path for _, path, _ in tracing.TARGETS], ids=[name for name, _, _ in tracing.TARGETS])
def test_target_resolves(path):
    assert tracing._originals(path), f"{path} names nothing in eck"
