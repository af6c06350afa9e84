"""Session-scoped Ray fixture — Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def shuffle_guard(monkeypatch):
    """Force every size-guarded lookup past its row guard (the sites read
    ``BROADCAST_MAX_ROWS`` at call time), so it takes the shuffle path."""
    from borges_ray.ops import relational

    monkeypatch.setattr(relational, "BROADCAST_MAX_ROWS", 0)
