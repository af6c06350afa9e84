"""Engine state: the per-host-bucket URL-seen filters and the checkpoint layout."""

from .bloom import BloomFilter  # noqa: F401
from .urlseen import UrlSeenShard, create_seen_index, seen_check_and_add  # noqa: F401
