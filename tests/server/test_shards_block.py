"""``/v1/health`` and ``/v1/metrics`` carry a ``shards`` block exactly
when the session serves through an N-shard layout.

An unsharded index also serves through the (1-shard) router internally;
that must stay invisible on the wire.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Session
from repro.data import evaluation_corpus
from repro.server import SimilarityService

pytestmark = pytest.mark.tier1

NAMES, _ = evaluation_corpus(30, seed=11)


def served(shards: int) -> SimilarityService:
    service = SimilarityService(Session(NAMES, shards=shards))
    body = json.dumps({"type": "topk", "queries": NAMES[:2], "k": 2}).encode()
    status, _ = service.handle("POST", "/v1/run", body)
    assert status == 200
    return service


@pytest.mark.parametrize("path", ["/v1/health", "/v1/metrics"])
def test_unsharded_session_reports_no_shards_block(path):
    status, payload = served(1).handle("GET", path)
    assert status == 200
    assert "shards" not in payload


@pytest.mark.parametrize("path", ["/v1/health", "/v1/metrics"])
def test_sharded_session_reports_its_layout(path):
    status, payload = served(3).handle("GET", path)
    assert status == 200
    block = payload["shards"]
    assert block["shards"] == 3
    assert sum(block["sizes"]) == len(NAMES)
    assert block["routing"]["shards_total"] == 3
