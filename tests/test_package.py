from __future__ import annotations

import seasonal_cusum


def test_every_exported_name_resolves():
    missing = [name for name in seasonal_cusum.__all__ if not hasattr(seasonal_cusum, name)]
    assert missing == []
