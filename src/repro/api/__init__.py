"""The versioned public serving API.

``repro.api.v1`` is the current (and only) version — one façade over the
whole backend that the CLI, the scenario runner, the examples, and any
external caller go through. Import from the versioned module so payload
shapes and error codes stay stable under you::

    from repro.api.v1 import AuditService, AlertEvent, SessionConfig

New major versions will appear as sibling modules (``repro.api.v2``)
with ``v1`` kept importable; see ``docs/api.md`` for the contract.

On top of the in-process façade sits the **transport plane** (pure
additions — every ``v1`` symbol is unchanged):

* :mod:`repro.api.protocol` — versioned request/response envelopes,
  per-tenant sequence numbers + idempotency keys, the ndjson codec, and
  the :class:`~repro.api.protocol.ProtocolHandler` every transport
  shares;
* :mod:`repro.api.wire` — HTTP/1.1 framing, the one module the client,
  the server and the cluster router share;
* :mod:`repro.api.http` — :func:`~repro.api.http.serve_http`, a
  dependency-free threading HTTP binding of the protocol;
* :mod:`repro.api.client` — :class:`~repro.api.client.ReproClient` with
  swappable :class:`~repro.api.client.InProcessTransport` /
  :class:`~repro.api.client.HttpTransport`, bit-identical per tenant;
* :mod:`repro.api.cluster` — :func:`~repro.api.cluster.serve_cluster`,
  the tenant-sharded multi-process tier: a consistent-hash ring
  (:mod:`repro.api.hashring`) routes tenants to supervised worker
  processes (:mod:`repro.api.supervisor`) behind one asyncio front door
  speaking the same protocol — a cluster URL is just another
  :class:`~repro.api.client.ReproClient` endpoint.
"""

from repro.api import v1
from repro.api.protocol import (
    PROTOCOL_VERSION,
    ErrorBody,
    ProtocolHandler,
    Request,
    Response,
    SequenceTracker,
    decode_ndjson,
    encode_ndjson,
)
from repro.api.http import ReproHttpServer, serve_http
from repro.api.client import HttpTransport, InProcessTransport, ReproClient
from repro.api.hashring import HashRing
from repro.api.supervisor import WorkerSpec, WorkerSupervisor
from repro.api.cluster import AuditCluster, serve_cluster

#: The current API version module.
CURRENT_VERSION = "v1"

__all__ = [
    "AuditCluster",
    "CURRENT_VERSION",
    "ErrorBody",
    "HashRing",
    "HttpTransport",
    "InProcessTransport",
    "PROTOCOL_VERSION",
    "ProtocolHandler",
    "ReproClient",
    "ReproHttpServer",
    "Request",
    "Response",
    "SequenceTracker",
    "WorkerSpec",
    "WorkerSupervisor",
    "decode_ndjson",
    "encode_ndjson",
    "serve_cluster",
    "serve_http",
    "v1",
]
