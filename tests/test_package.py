"""The package's public surface."""
from __future__ import annotations

import catfuse


def test_every_exported_name_resolves():
    missing = [name for name in catfuse.__all__ if not hasattr(catfuse, name)]
    assert missing == []
