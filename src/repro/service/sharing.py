"""Pool-shared snapshots: serve batched probes without re-shipping state.

The shared worker pool (:mod:`repro.runtime.pool`) receives every byte
of a task's state *per task*: ``verify_pairs`` ships the string pairs
of each chunk, the parallel engine ships whole job shards.  For a
resident serving index that would mean re-pickling the tokenized
collection, the interned vocab and the postings for every batch of
queries -- exactly the build cost the serving layer exists to amortize.

This module publishes a snapshot to the pool **once** instead:

* the parent registers the snapshot in a process-global registry and as
  a worker initializer (:func:`repro.runtime.pool.register_worker_initializer`);
* on **fork** platforms workers inherit the registry copy-on-write --
  zero pickling, the snapshot's interned tables and precomputed Myers
  masks arrive for free;
* on **spawn/forkserver** platforms the initializer arguments are
  pickled to each worker exactly once at pool start-up -- the explicit
  broadcast fallback (cost: one snapshot pickle per worker, not per
  task).

What gets published is the serving router
(:class:`repro.shard.ShardedIndex`, the 1-shard one a
:class:`repro.service.SimilarityIndex` serves through included): its
pooled path ships only ``(token, operation, queries, ...)`` per chunk
and is the one place the serving layer fans out -- see
``ShardedIndex._serve``.  :class:`Publishable` is the publication
bookkeeping both index classes share.
"""

from __future__ import annotations

import itertools
import os
from typing import Any

from repro.runtime.pool import (
    register_worker_initializer,
    unregister_worker_initializer,
)

#: Per-process snapshot registry: publish token -> index.  In
#: the parent it holds every published snapshot; in workers it is filled
#: by fork inheritance or the initializer broadcast.
_SNAPSHOTS: dict[str, Any] = {}

#: Parent-side bookkeeping: index ``share_key`` -> its live token, so a
#: re-publication (after ``append``) replaces the previous registry
#: entry instead of accumulating one per version.
_TOKENS_BY_KEY: dict[str, str] = {}

_SEQUENCE = itertools.count()
_SHARE_KEYS = itertools.count()


def publish_snapshot(index) -> str:
    """Make ``index`` resolvable in every shared-pool worker; return its token.

    Safe to call repeatedly: each call mints a fresh token (the serving
    layer re-publishes after an ``append``), and the per-index key makes
    the newest publication *replace* the previous one -- in the parent
    registry and in the pool's start-up payload -- instead of
    accumulating stale versions.  A publication pins the snapshot for
    the process lifetime; call :func:`unpublish_snapshot` (or
    :meth:`Publishable.unpublish`) before discarding an index a
    long-lived server no longer serves.
    """
    token = f"simindex-{os.getpid()}-{next(_SEQUENCE)}"
    previous = _TOKENS_BY_KEY.get(index.share_key)
    if previous is not None:
        _SNAPSHOTS.pop(previous, None)
    _TOKENS_BY_KEY[index.share_key] = token
    _SNAPSHOTS[token] = index
    register_worker_initializer(
        f"repro.service.sharing:{index.share_key}",
        _install_snapshot,
        (token, index),
    )
    return token


def unpublish_snapshot(index) -> None:
    """Withdraw a snapshot's publication, freeing the held payload.

    Removes the parent registry entry and the pool initializer carrying
    the snapshot (future pools stop receiving it); live pool workers
    keep their copy until the next pool rebuild.  No-op when the index
    was never published.
    """
    token = _TOKENS_BY_KEY.pop(index.share_key, None)
    if token is not None:
        _SNAPSHOTS.pop(token, None)
    unregister_worker_initializer(f"repro.service.sharing:{index.share_key}")


def _install_snapshot(token: str, index) -> None:
    """Worker initializer: register the broadcast snapshot locally."""
    _SNAPSHOTS[token] = index


def resolve_snapshot(token: str):
    """The snapshot behind ``token`` in this process (workers included)."""
    try:
        return _SNAPSHOTS[token]
    except KeyError:
        raise RuntimeError(
            f"snapshot {token!r} is not published in this process; "
            "serve tasks must reach workers of a pool created after "
            "publish_snapshot()"
        ) from None


class Publishable:
    """Pool-publication bookkeeping for a serving index.

    Subclasses call :meth:`_init_publication` from ``__init__``.  A
    pickled clone is a distinct publishable identity: it carries no
    publication token (tokens are per-process) and gets a fresh
    ``share_key``, because keeping the original's would make the clone's
    publication evict the original's from the registry.
    """

    def _init_publication(self) -> None:
        #: Stable identity for pool-publication bookkeeping.
        self.share_key = f"{os.getpid()}-{next(_SHARE_KEYS)}"
        self._published: str | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_published"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.share_key = f"{os.getpid()}-{next(_SHARE_KEYS)}"

    def ensure_published(self) -> str:
        """Publish this snapshot to the shared pool once; return its token."""
        if self._published is None:
            self._published = publish_snapshot(self)
        return self._published

    def unpublish(self) -> None:
        """Withdraw this snapshot from the shared pool.

        A publication pins the snapshot in the process-wide registry and
        in the pool start-up payload; a long-lived server discarding an
        index should unpublish it first (``append`` does this
        automatically before its re-publication).  Safe to call when
        never published; the next pooled serve re-publishes.
        """
        unpublish_snapshot(self)
        self._published = None
