"""Multi-tenant serving end-to-end: fairness, admission, accounting.

A latency tenant (tight deadlines, weight 4) and a bulk tenant (no
deadlines, weight 1) share one BackgroundServer; the tests pin the
contract: the latency tenant's requests jump the bulk backlog without
missing deadlines, the bulk tenant keeps the bulk of the throughput
(work conservation), admission rejections carry Retry-After, expired
deadlines return the structured 504 body, and coalesced cross-tenant
work is charged to exactly one tenant's WFQ deficit.
"""

import http.client
import json
import threading

import pytest

from repro.core import Session
from repro.serve import (
    BackgroundServer,
    MicroBatcher,
    ReproServer,
    RequestQueue,
    TenantConfig,
    TenantTable,
)


@pytest.fixture(scope="module")
def session():
    with Session("Tile-4", backend="analytic") as session:
        yield session


def make_table():
    return TenantTable([
        TenantConfig(name="latency", weight=4.0),
        TenantConfig(name="bulk", weight=1.0),
        TenantConfig(name="limited", weight=1.0, rate_rps=1.0, burst=1.0),
    ])


@pytest.fixture(scope="module")
def server(session):
    repro_server = ReproServer(session, port=0, max_batch=4,
                               max_delay_ms=2.0, queue_depth=128,
                               tenants=make_table())
    with BackgroundServer(repro_server) as background:
        yield background.server


def request(server, method, path, payload=None, tenant=None):
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=60)
    headers = {} if tenant is None else {"X-Repro-Tenant": tenant}
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return (response.status, json.loads(response.read()),
                dict(response.getheaders()))
    finally:
        connection.close()


def spgemm_body(seed, **extra):
    return {"dataset": "wiki-Vote", "max_nodes": 96, "seed": seed, **extra}


class TestTenantIdentity:
    def test_default_tenant_when_header_absent(self, server):
        status, row, _ = request(server, "POST", "/v1/spgemm",
                                 spgemm_body(0))
        assert status == 200
        _, payload, _ = request(server, "GET", "/v1/tenants")
        assert payload["default_tenant"] == "default"
        assert payload["tenants"]["default"]["serving"]["admitted"] >= 1

    def test_tenant_header_routes_accounting(self, server):
        status, row, _ = request(server, "POST", "/v1/spgemm",
                                 spgemm_body(1), tenant="bulk")
        assert status == 200
        _, payload, _ = request(server, "GET", "/v1/tenants")
        bulk = payload["tenants"]["bulk"]
        assert bulk["serving"]["admitted"] >= 1
        assert bulk["serving"]["responses"] >= 1
        assert bulk["config"]["weight"] == 1.0
        assert bulk["scheduling"]["charged"] >= 1.0

    def test_invalid_tenant_header_400(self, server):
        status, payload, _ = request(server, "POST", "/v1/spgemm",
                                     spgemm_body(2), tenant="bad name!")
        assert status == 400
        assert "X-Repro-Tenant".lower() in payload["error"].lower()

    def test_stats_carries_tenant_rows(self, server):
        _, payload, _ = request(server, "GET", "/stats")
        assert "tenants" in payload
        assert "default" in payload["tenants"] or \
            "bulk" in payload["tenants"]


class TestAdmissionOverHTTP:
    def test_rate_limit_429_with_retry_after(self, server):
        first = request(server, "POST", "/v1/spgemm", spgemm_body(3),
                        tenant="limited")
        assert first[0] == 200
        status, payload, headers = request(server, "POST", "/v1/spgemm",
                                           spgemm_body(4),
                                           tenant="limited")
        assert status == 429
        assert payload["tenant"] == "limited"
        assert payload["retry_after_s"] > 0
        assert int(headers["Retry-After"]) >= 1
        _, tenants, _ = request(server, "GET", "/v1/tenants")
        serving = tenants["tenants"]["limited"]["serving"]
        assert serving["rejected_rate"] >= 1
        assert serving["rejected"] >= 1

    def test_deadline_expiry_is_structured_504(self, server):
        # timeout_s must be above 0; a nanosecond deadline still expires
        # before the batcher can dispatch the request.
        status, payload, _ = request(
            server, "POST", "/v1/spgemm",
            spgemm_body(5, timeout_s=1e-9), tenant="bulk")
        assert status == 504
        assert payload["error"] == "deadline"
        assert payload["tenant"] == "bulk"
        assert payload["queued_ms"] >= 0.0
        _, tenants, _ = request(server, "GET", "/v1/tenants")
        assert tenants["tenants"]["bulk"]["serving"]["deadline_misses"] >= 1


class TestMixedTenantFairness:
    def test_latency_tenant_meets_deadlines_bulk_keeps_share(self, server):
        """A saturating bulk tenant and a paced latency tenant: the
        latency tenant's tight deadlines all hold (EDF jumps the bulk
        backlog), while work conservation leaves the bulk tenant >= 70%
        of total completions."""
        n_bulk, n_latency = 48, 8
        errors = []

        def bulk_client(offset):
            for n in range(offset, n_bulk, 4):
                status, _, _ = request(server, "POST", "/v1/spgemm",
                                       spgemm_body(100 + n), tenant="bulk")
                if status != 200:
                    errors.append(("bulk", status))

        threads = [threading.Thread(target=bulk_client, args=(offset,))
                   for offset in range(4)]
        for thread in threads:
            thread.start()
        for n in range(n_latency):
            status, _, _ = request(server, "POST", "/v1/spgemm",
                                   spgemm_body(500 + n, timeout_s=10.0),
                                   tenant="latency")
            if status != 200:
                errors.append(("latency", status))
        for thread in threads:
            thread.join()
        assert not errors
        _, payload, _ = request(server, "GET", "/v1/tenants")
        latency = payload["tenants"]["latency"]["serving"]
        bulk = payload["tenants"]["bulk"]["serving"]
        assert latency["deadline_misses"] == 0
        assert latency["responses"] >= n_latency
        assert latency["latency_p95_ms"] < 5000.0
        total = latency["responses"] + bulk["responses"]
        assert bulk["responses"] / total >= 0.70


class TestCoalescedBilling:
    def test_cross_tenant_coalescing_charges_one_execution(self, session):
        """Three identical requests from two tenants coalesce into one
        execution; WFQ net charge across tenants is exactly one request,
        billed to the earliest-deadline owner, while every tenant still
        records its own latency sample."""
        table = TenantTable([TenantConfig(name="a", weight=1.0),
                             TenantConfig(name="b", weight=1.0)])
        queue = RequestQueue(max_depth=16, tenants=table)
        batcher = MicroBatcher(session, queue, max_batch=8,
                               max_delay_ms=0.0)
        stats = batcher.stats
        from repro.datasets import load_dataset
        from repro.core import SpGEMMSpec

        adjacency = load_dataset("wiki-Vote", max_nodes=96,
                                 seed=11).adjacency_csr()
        specs = [SpGEMMSpec(a=adjacency, label=f"r{n}") for n in range(3)]
        queue.put(specs[0], tenant="a")                    # no deadline
        owner = queue.put(specs[1], timeout_s=60.0, tenant="b")
        queue.put(specs[2], tenant="a")
        batch = queue.get_batch(8, 0.0)
        batcher._serve_batch(batch)

        accounts = queue.accounting()
        # One execution -> net one request across both tenants, charged
        # to tenant b (the only member holding a deadline).
        assert accounts["a"]["net"] == pytest.approx(0.0)
        assert accounts["b"]["net"] == pytest.approx(1.0)
        assert sum(row["charged"] - row["refunded"]
                   for row in accounts.values()) == pytest.approx(1.0)
        # Every request resolved with its own label and latency sample.
        assert owner.future.result(timeout=5).label == "r1"
        rows = stats.tenant_snapshot()
        assert rows["a"]["responses"] == 2
        assert rows["b"]["responses"] == 1
        assert stats.snapshot()["coalesced"] == 2
