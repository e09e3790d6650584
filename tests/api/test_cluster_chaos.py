"""Fault injection for the sharded serving tier.

The co-headline acceptance criterion of the cluster PR: SIGKILL a worker
process — between decides and mid-cycle — and prove the supervisor
restarts it, WAL replay restores its exact state, idempotent retries
return bit-identical decisions, and no budget is double-charged. Every
assertion compares the survivor against an *uninterrupted* single-process
:class:`~repro.api.v1.AuditService` twin driving the same events, so
"recovered" means indistinguishable, not merely alive.

SIGKILL (not SIGTERM) is deliberate: the worker gets no chance to flush
or clean up, exactly like a crashed machine. Determinism comes from the
WAL's flush-per-append contract — everything acknowledged is on disk —
so these tests are exact, not timing-dependent.
"""

import asyncio
import dataclasses
import json
import logging
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.errors import WorkerUnavailableError
from repro.api import ReproClient, serve_cluster, serve_http
from repro.api.v1 import AuditService

from apihelpers import make_config, make_events, make_history


def _pin_tenants(cluster, count_per_shard=1):
    """Deterministic tenant names, ``count_per_shard`` per shard."""
    pinned = {worker: [] for worker in cluster.worker_ids}
    index = 0
    while any(len(names) < count_per_shard for names in pinned.values()):
        name = f"tenant-{index}"
        owner = cluster.owner_of(name)
        if len(pinned[owner]) < count_per_shard:
            pinned[owner].append(name)
        index += 1
    return pinned


def _strip_wall(report):
    return dataclasses.replace(report, wall_seconds=0.0)


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.fixture()
def rig(tmp_path):
    """A 2-worker cluster + client + uninterrupted reference service."""
    with serve_cluster(
        workers=2, state_dir=tmp_path / "cluster"
    ).start_background() as cluster:
        client = ReproClient.connect(cluster.url)
        reference = AuditService()
        yield cluster, client, reference


def _open_everywhere(cluster, client, reference, budget=20.0):
    pinned = _pin_tenants(cluster)
    tenants = [name for names in pinned.values() for name in names]
    for tenant in tenants:
        for target in (client, reference):
            target.open_session(
                make_config(tenant=tenant, budget=budget), make_history()
            )
    return tenants


class TestKillBetweenDecides:
    def test_sigkill_then_idempotent_retry_is_bit_identical(self, rig):
        cluster, client, reference = rig
        tenants = _open_everywhere(cluster, client, reference)
        victim_tenant = tenants[0]
        victim_shard = cluster.owner_of(victim_tenant)
        events = make_events(tenant=victim_tenant, n=10)

        for seq, event in enumerate(events[:4], start=1):
            lived, _ = client.decide_idempotent(event, seq=seq)
            expected, _ = reference.decide_idempotent(event, seq=seq)
            assert lived == expected

        cluster.supervisor.kill(victim_shard)

        # The client never saw seq 4 fail, but a real client whose reply
        # got lost in the crash would retry it: the revived worker must
        # answer from its replayed idempotency window, not re-decide.
        replay, replayed = client.decide_idempotent(events[3], seq=4)
        expected_replay, _ = reference.decide_idempotent(events[3], seq=4)
        assert replayed
        assert replay == expected_replay

        # And the stream continues exactly where the crash interrupted it.
        for seq, event in enumerate(events[4:], start=5):
            lived, _ = client.decide_idempotent(event, seq=seq)
            expected, _ = reference.decide_idempotent(event, seq=seq)
            assert lived == expected
        assert cluster.supervisor.restarts(victim_shard) == 1

    def test_no_budget_double_charge_across_the_crash(self, rig):
        cluster, client, reference = rig
        tenants = _open_everywhere(cluster, client, reference, budget=5.0)
        victim_tenant = tenants[0]
        events = make_events(tenant=victim_tenant, n=8)
        for seq, event in enumerate(events[:5], start=1):
            client.decide_idempotent(event, seq=seq)
            reference.decide_idempotent(event, seq=seq)
        cluster.supervisor.kill(cluster.owner_of(victim_tenant))
        # Retry every already-consumed sequence — each must replay, and
        # none may burn budget or re-count events.
        for seq, event in enumerate(events[:5], start=1):
            decision, replayed = client.decide_idempotent(event, seq=seq)
            expected, _ = reference.decide_idempotent(event, seq=seq)
            assert replayed and decision == expected
        lived = _strip_wall(client.report(victim_tenant))
        expected = _strip_wall(reference.session(victim_tenant).report())
        assert lived == expected  # events, audits, budget — everything


class TestKillMidCycle:
    def test_sigkill_mid_cycle_recovers_to_identical_reports(self, rig):
        cluster, client, reference = rig
        tenants = _open_everywhere(cluster, client, reference)
        per_tenant = {
            tenant: make_events(tenant=tenant, n=12) for tenant in tenants
        }
        for tenant in tenants:
            client.submit(per_tenant[tenant][:7])
            reference.submit(per_tenant[tenant][:7])

        victim_shard = cluster.owner_of(tenants[0])
        cluster.supervisor.kill(victim_shard)

        # Finish the cycle through the revived worker: the tail events,
        # the cycle report, and the final stats must all match the twin.
        for tenant in tenants:
            lived = client.submit(per_tenant[tenant][7:])
            expected = reference.submit(per_tenant[tenant][7:])
            assert list(lived) == list(expected)
        for tenant in tenants:
            assert _strip_wall(client.close_cycle(tenant)) == _strip_wall(
                reference.close_cycle(tenant)
            )
        merged = client.stats()
        expected = reference.stats()
        assert merged.events == expected.events
        assert merged.cycles_closed == expected.cycles_closed
        assert merged.tenants == expected.tenants

    def test_submit_spanning_shards_survives_a_dead_worker(self, rig):
        """A submit whose fan-out hits a dead shard: the connection is
        refused (provably never sent), so the router revives the worker
        and retries — the caller sees nothing but correct decisions."""
        cluster, client, reference = rig
        tenants = _open_everywhere(cluster, client, reference)
        per_tenant = {
            tenant: make_events(tenant=tenant, n=6) for tenant in tenants
        }
        cluster.supervisor.kill(cluster.owner_of(tenants[0]))
        mixed = [
            per_tenant[tenant][index]
            for index in range(6)
            for tenant in tenants
        ]
        assert list(client.submit(mixed)) == list(reference.submit(mixed))


class TestSupervisionLimits:
    def test_restart_budget_exhaustion_surfaces_worker_unavailable(
        self, tmp_path
    ):
        with serve_cluster(
            workers=2, state_dir=tmp_path / "cluster", max_restarts=1
        ).start_background() as cluster:
            client = ReproClient.connect(cluster.url)
            tenant = next(
                name for name in (f"tenant-{i}" for i in range(100))
                if cluster.owner_of(name) == cluster.worker_ids[0]
            )
            client.open_session(make_config(tenant=tenant), make_history())
            event = make_events(tenant=tenant, n=2)[0]

            victim = cluster.owner_of(tenant)
            cluster.supervisor.kill(victim)
            decision, _ = client.decide_idempotent(event, seq=1)  # revives
            assert cluster.supervisor.restarts(victim) == 1

            cluster.supervisor.kill(victim)  # budget now exhausted
            with pytest.raises(WorkerUnavailableError):
                client.decide_idempotent(event, seq=1)
            # The cluster degrades, it does not lie: healthz reports the
            # dead shard and flips unhealthy.
            request = urllib.request.Request(cluster.url + "/healthz")
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request)
            health = json.load(caught.value)
            assert caught.value.code == 503
            assert not health["ok"]
            assert not health["workers"][victim]["ok"]

    def test_worker_breadcrumb_files_track_the_live_process(self, rig):
        """Each shard dir carries worker.pid / worker.url for shell
        orchestration (the CI chaos smoke kills through them); a revived
        worker rewrites both."""
        cluster, client, reference = rig
        tenants = _open_everywhere(cluster, client, reference)
        victim = cluster.owner_of(tenants[0])
        shard_dir = cluster.shard_dir(victim)
        pid_before = int((shard_dir / "worker.pid").read_text())
        assert pid_before == cluster.supervisor.pid(victim)

        cluster.supervisor.kill(victim)
        client.decide_idempotent(
            make_events(tenant=tenants[0], n=1)[0], seq=1
        )
        pid_after = int((shard_dir / "worker.pid").read_text())
        assert pid_after == cluster.supervisor.pid(victim)
        assert pid_after != pid_before
        url = (shard_dir / "worker.url").read_text().strip()
        assert json.load(
            urllib.request.urlopen(url + "/healthz")
        )["ok"]


class TestPooledForwarding:
    """The router keeps idle keep-alive connections per worker URL. A
    killed worker leaves those sockets at EOF; they must be dropped before
    anything is written to them, so the refused connect to the dead URL
    stays the only "never sent" signal."""

    def test_sigkill_after_warm_pool_answers_like_the_reference(self, rig):
        cluster, client, reference = rig
        tenants = _open_everywhere(cluster, client, reference, budget=5.0)
        victim_tenant = tenants[0]
        victim = cluster.owner_of(victim_tenant)
        events = make_events(tenant=victim_tenant, n=12)
        # Warm the router's pooled connections to the victim shard.
        for seq, event in enumerate(events[:4], start=1):
            lived = client.decide_idempotent(event, seq=seq)
            assert lived == reference.decide_idempotent(event, seq=seq)
        client.submit(events[4:6])
        reference.submit(events[4:6])
        old_url = (cluster.shard_dir(victim) / "worker.url").read_text()

        cluster.supervisor.kill(victim)

        # submit is not retry-safe: it only succeeds if the stale pooled
        # sockets were never written to.
        assert list(client.submit(events[6:9])) == list(
            reference.submit(events[6:9])
        )
        lived = client.decide_idempotent(events[9], seq=5)
        assert lived == reference.decide_idempotent(events[9], seq=5)
        assert cluster.supervisor.restarts(victim) == 1
        assert (cluster.shard_dir(victim) / "worker.url").read_text() != (
            old_url
        )
        # Nothing was charged twice.
        assert _strip_wall(client.report(victim_tenant)) == _strip_wall(
            reference.session(victim_tenant).report()
        )


    def test_sigkilled_worker_idle_connection_is_never_written_to(self, rig):
        cluster, client, reference = rig
        tenants = _open_everywhere(cluster, client, reference)
        victim_tenant = tenants[0]
        victim = cluster.owner_of(victim_tenant)
        events = make_events(tenant=victim_tenant, n=4)
        for seq, event in enumerate(events[:2], start=1):
            lived = client.decide_idempotent(event, seq=seq)
            assert lived == reference.decide_idempotent(event, seq=seq)
        old_url = cluster.supervisor.url(victim)
        assert cluster.pooled_connections()[old_url] == 1  # warm and idle

        cluster.supervisor.kill(victim)

        # A decide without a seq is not retry-safe: it only succeeds if
        # the router never wrote it into the dead worker's connection.
        assert client.decide(events[2]) == reference.decide(events[2])
        lived = client.decide_idempotent(events[3], seq=3)
        assert lived == reference.decide_idempotent(events[3], seq=3)
        assert lived[1] is False
        pooled = cluster.pooled_connections()
        assert old_url not in pooled
        assert pooled[cluster.supervisor.url(victim)] == 1



class TestWorkerPool:
    def test_a_closed_idle_connection_is_not_reused(self):
        """A server that restarts on the same URL leaves the pooled
        connection at EOF; the next post must open a fresh one instead of
        writing into the old socket (which would fail mid-request)."""
        from repro.api.cluster import _WorkerPool

        body = json.dumps({"op": "healthz", "version": 1}).encode()
        first = serve_http(AuditService()).start_background()
        host, port = first.address
        service = AuditService()
        service.open_session(make_config(tenant="b"), make_history())
        servers = [first]

        async def run():
            pool = _WorkerPool()
            try:
                status, _ctype, payload = await pool.post(
                    first.url, "/v1/healthz", body, "application/json"
                )
                assert status == 200
                assert json.loads(payload)["payload"]["tenants"] == []
                first.shutdown()
                second = serve_http(service, host=host, port=port)
                servers.append(second.start_background())
                await asyncio.sleep(0.1)  # the loop reads the server's FIN
                status, _ctype, payload = await pool.post(
                    second.url, "/v1/healthz", body, "application/json"
                )
                assert json.loads(payload)["payload"]["tenants"] == ["b"]
                assert pool.counts() == {second.url: 1}
            finally:
                await pool.retain(None)

        try:
            asyncio.run(run())
            assert _wait_for(lambda: servers[-1].open_connections == 0)
        finally:
            for server in servers:
                server.shutdown()

def _accepted_connections(url):
    """ESTABLISHED TCP connections whose local end is the URL's port: the
    connections a worker process holds open (Linux ``/proc/net/tcp*``)."""
    port = int(url.rsplit(":", 1)[1])
    count = 0
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            rows = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            if fields[3] == "01" and int(fields[1].rsplit(":", 1)[1], 16) == port:
                count += 1
    return count


@pytest.mark.skipif(
    not Path("/proc/net/tcp").exists(), reason="needs Linux /proc/net/tcp"
)
class TestPoolAcrossRebalance:
    def test_retired_worker_urls_lose_their_connections(self, tmp_path):
        with serve_cluster(
            workers=2, state_dir=tmp_path / "cluster"
        ).start_background() as cluster:
            with ReproClient.connect(cluster.url) as client:
                tenants = [f"pool-{index}" for index in range(6)]
                for tenant in tenants:
                    client.open_session(make_config(tenant=tenant), make_history())

                def touch_every_worker():
                    for worker_id in cluster.worker_ids:
                        tenant = next(
                            t for t in tenants if cluster.owner_of(t) == worker_id
                        )
                        client.report(tenant)

                def assert_pool_matches_workers():
                    live = {
                        cluster.supervisor.url(worker_id)
                        for worker_id in cluster.worker_ids
                    }
                    pooled = cluster.pooled_connections()
                    assert set(pooled) <= live
                    for url in live:
                        assert _wait_for(
                            lambda: _accepted_connections(url) == pooled.get(url, 0)
                        ), (url, pooled)

                touch_every_worker()
                before = {
                    worker_id: cluster.supervisor.url(worker_id)
                    for worker_id in cluster.worker_ids
                }
                assert set(cluster.pooled_connections()) == set(before.values())

                added = cluster.add_worker()
                assert_pool_matches_workers()
                retired = set(before.values()) - {
                    cluster.supervisor.url(worker_id)
                    for worker_id in cluster.worker_ids
                }
                assert retired, "the rebalance restarted no worker"
                touch_every_worker()
                assert cluster.pooled_connections() == {
                    cluster.supervisor.url(worker_id): 1
                    for worker_id in cluster.worker_ids
                }
                assert_pool_matches_workers()

                cluster.remove_worker(added)
                assert_pool_matches_workers()
                touch_every_worker()
                assert cluster.pooled_connections() == {
                    cluster.supervisor.url(worker_id): 1
                    for worker_id in cluster.worker_ids
                }
                assert_pool_matches_workers()


class TestRouterShutdown:
    def test_shutdown_with_a_kept_alive_client_logs_nothing(
        self, tmp_path, caplog
    ):
        cluster = serve_cluster(
            workers=1, state_dir=tmp_path / "cluster"
        ).start_background()
        client = ReproClient.connect(cluster.url)
        try:
            client.healthz()  # the client now holds a kept-alive connection
            with caplog.at_level(logging.DEBUG, logger="asyncio"):
                cluster.shutdown()
            assert cluster.join(timeout=0)
            noisy = [
                record for record in caplog.records
                if record.name == "asyncio" and record.levelno >= logging.WARNING
            ]
            assert noisy == [], [record.getMessage() for record in noisy]
        finally:
            client.close()
            cluster.shutdown()
