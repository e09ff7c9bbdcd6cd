"""Multi-tenant scheduler: tenants, EDF, WFQ, admission control.

Property tests pin the two invariants the serving layer leans on:
EDF never inverts two same-tenant deadlines, and WFQ deficit
accounting conserves work (net charge == executed work) under any
interleaving of selections and refunds.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.batcher import predicted_backlog_makespan_s
from repro.serve.queue import RequestQueue, ServeRequest
from repro.serve.sched import (
    DEFAULT_TENANT,
    AdmissionController,
    QuotaExceeded,
    RateLimited,
    EDFQueue,
    REQUEST_COST,
    TenantConfig,
    TenantTable,
    WFQScheduler,
    deadline_key,
)
from repro.serve.sched.admission import (
    DEFAULT_RETRY_AFTER_S,
    _TokenBucket,
)


def make_request(request_id, tenant=DEFAULT_TENANT, deadline=None):
    return ServeRequest(spec=object(), request_id=request_id,
                        tenant=tenant, deadline=deadline)


# ----------------------------------------------------------------------
# Tenant policy
# ----------------------------------------------------------------------
class TestTenantConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantConfig(name="")
        with pytest.raises(ValueError):
            TenantConfig(name="t", weight=0)
        with pytest.raises(ValueError):
            TenantConfig(name="t", weight=math.inf)
        with pytest.raises(ValueError):
            TenantConfig(name="t", rate_rps=-1)
        with pytest.raises(ValueError):
            TenantConfig(name="t", burst=4)  # burst requires rate_rps
        with pytest.raises(ValueError):
            TenantConfig(name="t", max_in_flight=0)

    def test_bucket_capacity(self):
        assert TenantConfig(name="t", rate_rps=8).bucket_capacity == 8.0
        assert TenantConfig(name="t", rate_rps=0.25).bucket_capacity == 1.0
        assert TenantConfig(name="t", rate_rps=2,
                            burst=32).bucket_capacity == 32.0


class TestTenantTable:
    def test_from_json_document(self):
        table = TenantTable.from_json({
            "default_weight": 2,
            "tenants": {
                "latency": {"weight": 4, "rate_rps": 100, "burst": 8,
                            "max_in_flight": 16},
                "bulk": {"weight": 1},
            }})
        assert table.default_weight == 2.0
        assert table.get("latency").burst == 8.0
        assert table.get("bulk").weight == 1.0
        # Unknown tenants get the default policy at default_weight.
        assert table.get("stranger").weight == 2.0

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            TenantTable.from_json({"tenants": {"t": {"wieght": 2}}})

    def test_from_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text('{"tenants": {"a": {"weight": 3}}}')
        assert TenantTable.from_file(path).get("a").weight == 3.0

    def test_duplicate_tenant_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TenantTable([TenantConfig(name="a"), TenantConfig(name="a")])

    def test_adhoc_names_are_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.serve.sched.tenants.MAX_ADHOC_TENANTS", 2)
        table = TenantTable()
        assert table.resolve_name("a") == "a"
        table.get("a")
        table.get("b")
        # Past the bound, unseen names fold into the default tenant so a
        # client-controlled header cannot grow server state.
        assert table.resolve_name("c") == DEFAULT_TENANT
        assert table.get("c").name == DEFAULT_TENANT
        # Already-memoized and explicit names keep their identity.
        assert table.resolve_name("a") == "a"


# ----------------------------------------------------------------------
# EDF
# ----------------------------------------------------------------------
class TestEDFQueue:
    def test_deadline_order(self):
        queue = EDFQueue()
        queue.push(make_request(0, deadline=3.0))
        queue.push(make_request(1, deadline=1.0))
        queue.push(make_request(2, deadline=2.0))
        assert [queue.pop().request_id for _ in range(3)] == [1, 2, 0]

    def test_no_deadline_degrades_to_fifo(self):
        queue = EDFQueue()
        for n in range(4):
            queue.push(make_request(n))
        assert [queue.pop().request_id for _ in range(4)] == [0, 1, 2, 3]

    def test_deadlines_beat_no_deadlines(self):
        queue = EDFQueue()
        queue.push(make_request(0))
        queue.push(make_request(1, deadline=9.0))
        assert queue.pop().request_id == 1

    def test_head_key_empty(self):
        assert EDFQueue().head_key() == (math.inf, -1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.none(),
                              st.floats(min_value=0.0, max_value=1e6)),
                    min_size=1, max_size=40))
    def test_never_inverts_two_deadlines(self, deadlines):
        """Property: popping yields non-decreasing deadline keys — two
        same-tenant requests are never served deadline-inverted."""
        queue = EDFQueue()
        for n, deadline in enumerate(deadlines):
            queue.push(make_request(n, deadline=deadline))
        popped = [queue.pop() for _ in range(len(deadlines))]
        keys = [deadline_key(request) for request in popped]
        assert keys == sorted(keys)
        assert len(queue) == 0


# ----------------------------------------------------------------------
# WFQ
# ----------------------------------------------------------------------
class TestWFQScheduler:
    def make(self, **weights):
        table = TenantTable([TenantConfig(name=name, weight=weight)
                             for name, weight in weights.items()])
        return WFQScheduler(table)

    def test_share_tracks_weight_while_backlogged(self):
        sched = self.make(heavy=4, light=1)
        n = 0
        for _ in range(100):
            sched.push(make_request(n, tenant="heavy"))
            sched.push(make_request(n + 1, tenant="light"))
            n += 2
        served = [request.tenant for request in sched.select(100)]
        heavy = served.count("heavy")
        light = served.count("light")
        # 4:1 weights -> an 80/20 split of the first 100 selections.
        assert heavy == pytest.approx(80, abs=3)
        assert light == pytest.approx(20, abs=3)

    def test_work_conserving_when_one_lane_idle(self):
        sched = self.make(heavy=4, light=1)
        for n in range(10):
            sched.push(make_request(n, tenant="light"))
        # The weight-4 lane is idle: the light lane gets everything.
        assert len(sched.select(10)) == 10

    def test_idle_lane_banks_no_credit(self):
        sched = self.make(a=1, b=1)
        for n in range(20):
            sched.push(make_request(n, tenant="a"))
        sched.select(20)  # lane a's vtime advances to 20
        # b arrives late; it must not starve a for its idle 20 units.
        for n in range(20, 24):
            sched.push(make_request(n, tenant="a"))
            sched.push(make_request(n + 100, tenant="b"))
        served = [request.tenant for request in sched.select(8)]
        assert served.count("a") == 4
        assert served.count("b") == 4

    def test_edf_within_lane_fifo_across_none(self):
        sched = self.make(t=1)
        sched.push(make_request(0, tenant="t", deadline=5.0))
        sched.push(make_request(1, tenant="t", deadline=1.0))
        sched.push(make_request(2, tenant="t"))
        assert [r.request_id for r in sched.select(3)] == [1, 0, 2]

    def test_refund_returns_work(self):
        sched = self.make(t=2)
        sched.push(make_request(0, tenant="t"))
        sched.select(1)
        account = sched.accounting()["t"]
        assert account["charged"] == REQUEST_COST
        assert account["net"] == REQUEST_COST
        sched.refund("t")
        account = sched.accounting()["t"]
        assert account["refunded"] == REQUEST_COST
        assert account["net"] == 0.0
        assert account["vtime"] == pytest.approx(0.0)

    def test_drain_returns_arrival_order(self):
        sched = self.make(a=1, b=4)
        requests = [make_request(0, tenant="b", deadline=9.0),
                    make_request(1, tenant="a"),
                    make_request(2, tenant="b")]
        for request in requests:
            sched.push(request)
        assert [r.request_id for r in sched.drain()] == [0, 1, 2]
        assert sched.backlog == 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]),
                  st.one_of(st.none(),
                            st.floats(min_value=0.0, max_value=100.0))),
        min_size=1, max_size=60),
        st.data())
    def test_accounting_conserves_work(self, arrivals, data):
        """Property: after any interleaving of pushes, selections and
        refunds, sum(charged) == executed selections * REQUEST_COST and
        sum(net) == (selections - refunds) * REQUEST_COST."""
        sched = self.make(a=1, b=2, c=5)
        selected = []
        for n, (tenant, deadline) in enumerate(arrivals):
            sched.push(make_request(n, tenant=tenant, deadline=deadline))
            if data.draw(st.booleans()):
                selected.extend(sched.select(data.draw(
                    st.integers(min_value=1, max_value=4))))
        selected.extend(sched.select(len(arrivals)))
        assert len(selected) == len(arrivals)  # everything pushed drains
        refunds = 0
        for request in selected:
            if data.draw(st.booleans()):
                sched.refund(request.tenant)
                refunds += 1
        accounts = sched.accounting()
        assert sum(row["charged"] for row in accounts.values()) == \
            pytest.approx(len(selected) * REQUEST_COST)
        assert sum(row["net"] for row in accounts.values()) == \
            pytest.approx((len(selected) - refunds) * REQUEST_COST)
        assert all(row["backlog"] == 0 for row in accounts.values())


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = _TokenBucket(rate=2.0, capacity=2.0)
        assert bucket.take(0.0) == 0.0
        assert bucket.take(0.0) == 0.0
        wait = bucket.take(0.0)
        assert wait == pytest.approx(0.5)
        # Half a second later one token has refilled.
        assert bucket.take(0.5) == 0.0
        assert bucket.take(0.5) > 0.0

    def test_capacity_caps_idle_accrual(self):
        bucket = _TokenBucket(rate=10.0, capacity=3.0)
        bucket.take(0.0)
        # A long idle gap refills to capacity, not rate * gap.
        assert bucket.take(100.0) == 0.0
        assert bucket.take(100.0) == 0.0
        assert bucket.take(100.0) == 0.0
        assert bucket.take(100.0) > 0.0


class TestAdmissionController:
    def table(self, **kwargs):
        return TenantTable([TenantConfig(name="t", **kwargs)])

    def test_rate_limit_rejects_with_retry_after(self):
        control = AdmissionController(self.table(rate_rps=1.0))
        control.admit("t", now=0.0)
        with pytest.raises(RateLimited) as info:
            control.admit("t", now=0.0)
        assert info.value.status == 429
        assert info.value.tenant == "t"
        assert info.value.retry_after_s == pytest.approx(1.0)
        # A rejected request holds no in-flight slot.
        assert control.in_flight("t") == 1

    def test_quota_rejects_until_release(self):
        control = AdmissionController(self.table(max_in_flight=1),
                                      makespan_fn=lambda: 2.5)
        control.admit("t", now=0.0)
        with pytest.raises(QuotaExceeded) as info:
            control.admit("t", now=0.0)
        assert info.value.status == 429
        assert info.value.retry_after_s == pytest.approx(2.5)
        control.release("t")
        control.admit("t", now=0.0)  # slot freed

    def test_unlimited_tenant_always_admits(self):
        control = AdmissionController(TenantTable())
        for n in range(100):
            control.admit("anyone", now=float(n) * 1e-6)
        assert control.in_flight("anyone") == 100

    def test_makespan_fallbacks(self):
        table = TenantTable()
        assert AdmissionController(table).predicted_makespan_s() \
            == DEFAULT_RETRY_AFTER_S
        raising = AdmissionController(
            table, makespan_fn=lambda: (_ for _ in ()).throw(RuntimeError))
        assert raising.predicted_makespan_s() == DEFAULT_RETRY_AFTER_S
        bogus = AdmissionController(table, makespan_fn=lambda: -3.0)
        assert bogus.predicted_makespan_s() == DEFAULT_RETRY_AFTER_S
        good = AdmissionController(table, makespan_fn=lambda: 0.75)
        assert good.predicted_makespan_s() == 0.75

    def test_snapshot_shape(self):
        control = AdmissionController(self.table(rate_rps=5.0))
        control.admit("t", now=0.0)
        row = control.snapshot()["t"]
        assert row["in_flight"] == 1
        assert row["tokens"] == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Queue integration + Retry-After arithmetic
# ----------------------------------------------------------------------
class TestQueueScheduling:
    def test_fair_queue_orders_same_tenant_by_deadline(self):
        queue = RequestQueue(max_depth=8)
        late = queue.put(object(), timeout_s=60.0)
        soon = queue.put(object(), timeout_s=1.0)
        batch = queue.get_batch(2, 0.0)
        assert [r.request_id for r in batch] == \
            [soon.request_id, late.request_id]

    def test_fifo_mode_keeps_arrival_order(self):
        queue = RequestQueue(max_depth=8, scheduling="fifo")
        late = queue.put(object(), timeout_s=60.0)
        soon = queue.put(object(), timeout_s=1.0)
        batch = queue.get_batch(2, 0.0)
        assert [r.request_id for r in batch] == \
            [late.request_id, soon.request_id]
        assert queue.accounting() == {}  # no WFQ accounting under fifo

    def test_admission_rejection_leaves_queue_untouched(self):
        table = TenantTable([TenantConfig(name="t", max_in_flight=1)])
        control = AdmissionController(table)
        queue = RequestQueue(max_depth=8, tenants=table, admission=control)
        request = queue.put(object(), tenant="t")
        with pytest.raises(QuotaExceeded):
            queue.put(object(), tenant="t")
        assert queue.depth == 1
        assert control.in_flight("t") == 1
        # Resolving the future releases the admission slot.
        queue.get_batch(1, 0.0)
        request.future.set_result("done")
        assert control.in_flight("t") == 0
        queue.put(object(), tenant="t")

    def test_overflow_carries_retry_after(self):
        from repro.serve.queue import QueueOverflow

        queue = RequestQueue(max_depth=1, retry_after_fn=lambda: 1.25)
        queue.put(object())
        with pytest.raises(QueueOverflow) as info:
            queue.put(object())
        assert info.value.retry_after_s == 1.25


class TestBacklogMakespan:
    def test_wave_arithmetic(self):
        assert predicted_backlog_makespan_s(0, 8, 0.05) == \
            pytest.approx(0.05)
        assert predicted_backlog_makespan_s(7, 8, 0.05) == \
            pytest.approx(0.05)
        assert predicted_backlog_makespan_s(8, 8, 0.05) == \
            pytest.approx(0.10)
        assert predicted_backlog_makespan_s(23, 8, 0.05) == \
            pytest.approx(0.15)

    def test_degenerate_inputs(self):
        assert predicted_backlog_makespan_s(-5, 0, 0.1) == \
            pytest.approx(0.1)
        assert predicted_backlog_makespan_s(10, 4, -1.0) == 0.0
