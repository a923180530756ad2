"""repro.cluster — multi-process and multi-machine workers.

Everything here is pure stdlib process plumbing over the rest of the
system; no new dependency.  Supervisor and workers speak a typed,
versioned JSON-lines protocol over either stdin/stdout pipes (local
forks) or handshake-verified TCP sockets (cross-machine connect-back).

Four capabilities:

* :class:`WorkerPool` — spawn N ``python -m repro.cluster.worker``
  processes and drive them through one typed call interface with
  heartbeats, task timeouts, restart-on-crash and retry-on-death
  (:mod:`repro.cluster.pool`, :mod:`repro.cluster.worker`,
  :mod:`repro.cluster.protocol`);
* **cross-machine workers** — the same frames over TCP: the pool binds a
  :class:`WorkerListener` (``listen="HOST:PORT"``, shared ``secret``) and
  ``python -m repro.cluster.worker --connect HOST:PORT --secret-file F``
  workers dial in through a mutual protocol-version + HMAC handshake;
  :func:`ssh_worker_command` launches that command on a remote host
  (:mod:`repro.cluster.net`);
* **distributed sweeps** — ``repro experiment --shard i/N`` runs the
  deterministic shard ``i`` of a :class:`repro.api.SweepSpec` and ``repro
  merge-reports`` reassembles the shards into a report byte-identical to
  the serial run; ``repro experiment --listen`` runs every shard on a
  worker pool (:func:`run_sweep_on_pool`, :mod:`repro.cluster.sweeps`);
* **multi-process serving** — ``repro serve --workers N`` puts a parent
  HTTP front door over N router workers (local, remote, or a mix), with
  worker- and host-labelled aggregated metrics and 503 shedding while
  the fleet is mid-restart (:mod:`repro.cluster.serve`).
"""

from .net import (
    CONNECT_PLACEHOLDER,
    HandshakeError,
    PipeTransport,
    TcpTransport,
    Transport,
    TransportClosed,
    WorkerListener,
    parse_hostport,
    read_secret,
    ssh_worker_command,
    worker_connect_command,
)
from .pool import (
    ClusterUnavailable,
    PoolStats,
    RemoteError,
    TaskTimeout,
    WorkerDied,
    WorkerError,
    WorkerPool,
)
from .protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
)
from .serve import ClusterHttpServer, serve_cluster
from .sweeps import (
    ShardReport,
    merge_shard_files,
    merge_shard_reports,
    run_sweep_on_pool,
    run_sweep_shard,
    spec_hash,
)

__all__ = [
    "WorkerPool",
    "PoolStats",
    "WorkerError",
    "WorkerDied",
    "TaskTimeout",
    "ClusterUnavailable",
    "RemoteError",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "MAX_MESSAGE_BYTES",
    "encode_message",
    "decode_message",
    "Transport",
    "PipeTransport",
    "TcpTransport",
    "TransportClosed",
    "HandshakeError",
    "WorkerListener",
    "CONNECT_PLACEHOLDER",
    "parse_hostport",
    "read_secret",
    "worker_connect_command",
    "ssh_worker_command",
    "ClusterHttpServer",
    "serve_cluster",
    "ShardReport",
    "spec_hash",
    "run_sweep_shard",
    "run_sweep_on_pool",
    "merge_shard_reports",
    "merge_shard_files",
]
