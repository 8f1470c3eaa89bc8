"""The service gateway: the provider's front door over a worker pool.

The heavy lifting — processes, queues, shard-affine routing, ticket
bookkeeping, dead-worker detection — lives in the transport-agnostic
:class:`~repro.service.pool.WorkerPool`; the gateway is the
*in-process* :class:`~repro.service.transport.Transport` over it plus
the provider-surface facade and the operator's read views.  The
asyncio socket front-end (:mod:`repro.service.netserver`) shares the
same pool core, which is why the two paths cannot drift apart.

The public surface mirrors :class:`~repro.core.actors.provider.
ContentProvider` for everything the rest of the system uses — users,
devices and the marketplace simulator drive a gateway exactly like the
in-process actor.  Reads (audit log, licence register, revocation
sync) are served gateway-side from the same shard files the workers
write, through WAL snapshots.
"""

from __future__ import annotations

import time

from ..core.actors.bank import decompose_amount
from ..core.content import ContentPackage
from ..core.licenses import AnonymousLicense, PersonalLicense
from ..core.messages import (
    Coin,
    DepositRequest,
    ExchangeRequest,
    PurchaseRequest,
    RedeemRequest,
    WithdrawRequest,
)
from ..crypto.blind_rsa import verify_blind_signature
from ..errors import PaymentError, RevokedLicenseError, StoreIntegrityError
from ..storage.contents import CatalogEntry, ContentStore
from ..storage.ledger import LedgerEntry
from . import tracing as tracing_module
from .ledger import ShardedLedger, recover_intents
from .metrics import MetricsRegistry, ensure_service_metrics
from .replay import ReplayCache
from .pool import RESPONSE_TIMEOUT, WorkerPool
from .sharding import (
    ShardedAuditLog,
    ShardedLicenseStore,
    ShardedRevocationList,
    ShardedSpentTokenStore,
    ShardSet,
)
from .transport import Transport
from .workers import ServiceConfig, _catalog_store, publish_shared_tables

__all__ = [
    "ServiceGateway",
    "ServiceConfig",
    "ProviderSurface",
    "BankSurface",
    "build_gateway",
    "RESPONSE_TIMEOUT",
]


class ProviderSurface(Transport):
    """The protocol half of the provider facade, written once.

    Everything here reduces to :meth:`~repro.service.transport.
    Transport.submit` / :meth:`~repro.service.transport.Transport.
    gather`, so the in-process gateway and the network client present
    the same surface by inheritance, not by parallel maintenance.
    """

    def sell(self, request: PurchaseRequest) -> PersonalLicense:
        return self.call(request)

    def sell_batch(self, requests: list[PurchaseRequest]) -> list:
        return self.call_many(requests)

    def exchange(self, request: ExchangeRequest) -> AnonymousLicense:
        return self.call(request)

    def redeem(self, request: RedeemRequest) -> PersonalLicense:
        return self.call(request)

    def redeem_batch(self, requests: list[RedeemRequest]) -> list:
        return self.call_many(requests)

    def deposit(self, account: str, coins: list[Coin]) -> dict:
        return self.call(DepositRequest(account=account, coins=tuple(coins)))


class BankSurface(Transport):
    """The bank half of the facade: withdraw / deposit / balance /
    statement, written once against the transport seam.

    Parallels :class:`ProviderSurface`: the write operations reduce to
    :meth:`~repro.service.transport.Transport.submit` /
    :meth:`~repro.service.transport.Transport.gather` (so they run on
    the worker desks over either transport, with typed error
    envelopes), while the read half — :meth:`balance` and
    :meth:`statement` — is served by each concrete transport from the
    sharded ledger (the gateway reads the shard files directly; the
    socket client asks over control frames).  Together with the key
    surface (``denominations`` / ``public_key`` / ``decompose`` /
    ``verify_coin``) a gateway or socket client is a drop-in ``bank``
    argument for :func:`~repro.core.protocols.payment.withdraw_coins`.
    """

    def withdraw_blind(self, account: str, denomination: int, blinded: int) -> int:
        """Debit ``account`` and blind-sign one coin request on a
        worker desk; returns the blind signature value."""
        receipt = self.call(
            WithdrawRequest(
                account=account, denomination=denomination, blinded=blinded
            )
        )
        return int(receipt["signature"])

    def deposit(self, account: str, coins: list[Coin]) -> dict:
        return self.call(DepositRequest(account=account, coins=tuple(coins)))

    def balance(self, account: str) -> int:
        raise NotImplementedError

    def statement(self, account: str, *, limit: int | None = None) -> list[LedgerEntry]:
        raise NotImplementedError


class ServiceGateway(ProviderSurface, BankSurface):
    """Route requests to shard-affine desk workers, in-process."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        workers: int = 2,
        start_method: str | None = None,
        clock=None,
        max_inflight: int | None = None,
        max_pending: int | None = None,
        registry=None,
    ):
        # Warm the fastexp tables ONCE, here, and publish them: forked
        # workers inherit the registry copy-on-write, spawned workers
        # attach the shared-memory segment — either way the pool pays
        # for one table build, not one per worker.  The gateway owns
        # the segment and unlinks it in :meth:`close`.
        config, self._fastexp_segment = publish_shared_tables(config)
        # Open (and migrate) every shard *before* the pool starts: the
        # gateway's read views double as the schema bootstrap, so
        # workers never race each other on DDL.
        self._config = config
        self._shards = ShardSet(config.shard_paths)
        self._licenses = ShardedLicenseStore(self._shards)
        self._revocations = ShardedRevocationList(self._shards)
        self._audit = ShardedAuditLog(self._shards)
        self._spent_tokens = ShardedSpentTokenStore(self._shards, "anon-license")
        self._coin_spent_tokens = ShardedSpentTokenStore(self._shards, "ecash")
        self._ledger = ShardedLedger(self._shards)
        # Front-door view of the workers' idempotent-replay cache
        # (same shard files, so a retry the socket server answers here
        # never reaches a worker queue).  The wait budget is short:
        # the socket server consults this under its control lock, so a
        # mid-commit original must refuse-retryably fast, not camp on
        # the lock — the worker-side cache owns the patient wait.
        self._replay = ReplayCache(self._shards, self._ledger, wait_budget=0.25)
        self._contents: ContentStore = _catalog_store(config)
        self._closed = False
        self._registry = ensure_service_metrics(
            registry if registry is not None else MetricsRegistry()
        )
        self._m_ledger_latency = self._registry.get("p2drm_ledger_latency_seconds")
        self._m_ledger_2pc = self._registry.get("p2drm_ledger_2pc_total")
        self._m_ledger_intents = self._registry.get("p2drm_ledger_intents")
        #: Last durable 2PC counts folded into the counter (the refresh
        #: publishes deltas; intent rows are never deleted, so the scan
        #: counts are monotone).
        self._ledger_2pc_seen = {"prepare": 0, "commit": 0, "abort": 0}
        try:
            # Presumed-abort recovery BEFORE any worker starts: a
            # pending intent left by a crashed pool never reached its
            # commit point, so its coin spends are released and the
            # intent aborted — the payer's retry then goes through
            # cleanly and no coin stays spent without a credit.
            started = time.perf_counter()
            now = clock.now() if clock is not None else config.clock_start
            self._recovery = recover_intents(
                self._ledger, self._coin_spent_tokens, at=now
            )
            self._m_ledger_latency.observe(
                time.perf_counter() - started, op="recover"
            )
            # The provider's own account always exists (deposits only
            # *ensure* accounts, and an operator reading revenue before
            # the first sale deserves 0, not a typed refusal).
            self._ledger.ensure_account(config.bank_account, at=now)
            self.refresh_ledger_metrics()
            self._pool = WorkerPool(
                config,
                workers=workers,
                start_method=start_method,
                clock=clock,
                max_inflight=max_inflight,
                max_pending=max_pending,
                registry=self._registry,
            )
        except BaseException:
            self._shards.close()
            self._release_shared_tables()
            raise

    # -- lifecycle ---------------------------------------------------------

    @property
    def pool(self) -> WorkerPool:
        """The transport-agnostic core (shared with the socket server)."""
        return self._pool

    @property
    def workers(self) -> int:
        return self._pool.workers

    @property
    def metrics(self):
        """The pool's :class:`~repro.service.metrics.MetricsRegistry`
        (shared with whatever socket front-end wraps this gateway)."""
        return self._pool.metrics

    @property
    def shards(self) -> int:
        return len(self._shards)

    @property
    def _processes(self) -> list:
        """Worker process handles (tests kill these deliberately)."""
        return self._pool.processes

    @property
    def _abandoned(self) -> set:
        """The pool's abandoned-ticket book (asserted on in tests)."""
        return self._pool._abandoned

    def _release_shared_tables(self) -> None:
        """Unmap and unlink the published table segment (idempotent).

        Only the gateway unlinks: workers — including SIGKILL'd ones —
        unregister the name from their resource trackers at attach
        time, so the segment's lifetime is exactly the gateway's.
        """
        segment = self._fastexp_segment
        if segment is None:
            return
        self._fastexp_segment = None
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:
            pass

    def close(self) -> None:
        """Stop the pool and release the gateway's shard handles."""
        if self._closed:
            return
        self._closed = True
        self._pool.close()
        self._shards.close()
        self._release_shared_tables()

    def __enter__(self) -> "ServiceGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the transport -----------------------------------------------------

    def worker_for(self, request) -> int:
        """The shard-affine worker index for a request (exposed for
        tests that need to *defeat* affinity and race two workers)."""
        return self._pool.worker_for(request)

    def submit(
        self, request, *, worker: int | None = None, nonce: bytes | None = None
    ) -> int:
        """Enqueue one request; returns a ticket for :meth:`gather`.

        ``worker`` overrides shard affinity — how tests race the same
        token onto two different workers on purpose.  ``nonce``
        stamps an idempotency key for retry-safe resubmission (see
        :mod:`repro.service.replay`).
        """
        return self._pool.submit(request, worker=worker, nonce=nonce)

    def gather(self, request_ids: list[int]) -> list:
        """Results (or rejecting exceptions) for submitted tickets,
        aligned with ``request_ids``."""
        return self._pool.gather(request_ids)

    # -- the provider read surface -----------------------------------------

    @property
    def name(self) -> str:
        return self._config.provider_name

    @property
    def license_key(self):
        """Licence/LRL-snapshot verification key (devices pin this)."""
        return self._config.license_key.public_key

    @property
    def license_register(self) -> ShardedLicenseStore:
        return self._licenses

    @property
    def audit_log(self) -> ShardedAuditLog:
        return self._audit

    @property
    def revocation_list(self) -> ShardedRevocationList:
        return self._revocations

    @property
    def spent_tokens(self) -> ShardedSpentTokenStore:
        return self._spent_tokens

    @property
    def coin_spent_tokens(self) -> ShardedSpentTokenStore:
        return self._coin_spent_tokens

    def catalog(self) -> list[CatalogEntry]:
        return self._contents.catalog()

    def price(self, content_id: str) -> int:
        return self._contents.price(content_id)

    def package(self, content_id: str) -> bytes:
        """The sealed package bytes (what :meth:`download` parses —
        and what the socket server ships to remote clients)."""
        return self._contents.package(content_id)

    def download(self, content_id: str) -> ContentPackage:
        return ContentPackage.from_bytes(self.package(content_id))

    def revocation_sync(self, cursor=0):
        """Delta entries, signed snapshot and advanced cursor for sync.

        ``cursor`` is what the last sync returned — a per-shard version
        tuple (a legacy ``int`` watermark degrades to a full resync).
        The snapshot is bounded by the returned cursor (see
        :meth:`~repro.service.sharding.ShardedRevocationList.sync_since`)
        so a concurrent worker revocation cannot produce a snapshot
        whose root covers an entry the delta omits.
        """
        return self._revocations.sync_since(
            cursor, self._config.license_key
        )

    def prove_not_revoked(self, license_id: bytes):
        if self._revocations.is_revoked(license_id):
            raise RevokedLicenseError(
                f"licence {license_id.hex()[:16]} is revoked"
            )
        # Snapshot and proof must come from ONE scan: workers revoke
        # concurrently, and a proof against a newer tree than the
        # signed root would spuriously fail verification.
        snapshot, tree = self._revocations.snapshot_with_tree(
            self._config.license_key
        )
        try:
            proof = tree.prove_non_inclusion(license_id)
        except StoreIntegrityError:
            # A worker revoked it between the is_revoked check and the
            # scan — that is a plain revocation, not corrupted state.
            raise RevokedLicenseError(
                f"licence {license_id.hex()[:16]} is revoked"
            ) from None
        return snapshot, proof

    # -- the bank surface --------------------------------------------------

    @property
    def bank_account(self) -> str:
        """The provider's ledger account (deposits land here)."""
        return self._config.bank_account

    @property
    def denominations(self) -> list[int]:
        """Supported coin denominations, largest first."""
        return sorted(self._config.bank_keys, reverse=True)

    def public_key(self, denomination: int):
        try:
            return self._config.bank_keys[denomination]
        except KeyError:
            raise PaymentError(
                f"unsupported denomination {denomination}"
            ) from None

    def decompose(self, amount: int) -> list[int]:
        return decompose_amount(amount, self.denominations)

    def verify_coin(self, coin: Coin) -> None:
        """Signature-only check, same contract as the in-process bank
        (raises :class:`~repro.errors.InvalidSignature` on mismatch)."""
        verify_blind_signature(
            coin.payload(), coin.signature, self.public_key(coin.value)
        )

    @property
    def ledger(self) -> ShardedLedger:
        """The gateway-side read view over the sharded ledger files."""
        return self._ledger

    @property
    def replay(self) -> ReplayCache:
        """The idempotent-replay cache over the same shard files the
        workers write (the socket front door short-circuits retries
        whose original landed)."""
        return self._replay

    @property
    def recovery_summary(self) -> dict:
        """What presumed-abort startup recovery did: ``{"aborted": n,
        "released": k}`` (both zero on a clean start)."""
        return dict(self._recovery)

    def open_account(self, account_id: str, *, initial_balance: int = 0) -> None:
        """Open a ledger account on its home shard (operator path; the
        worker desks only *ensure* accounts on deposit)."""
        self._ledger.open_account(
            account_id,
            at=self._pool.clock.now(),
            initial_balance=initial_balance,
        )

    def balance(self, account: str) -> int:
        started = time.perf_counter()
        try:
            return self._ledger.balance(account)
        finally:
            self._m_ledger_latency.observe(
                time.perf_counter() - started, op="balance"
            )

    def statement(
        self, account: str, *, limit: int | None = None
    ) -> list[LedgerEntry]:
        started = time.perf_counter()
        try:
            return self._ledger.statement(account, limit=limit)
        finally:
            self._m_ledger_latency.observe(
                time.perf_counter() - started, op="statement"
            )

    def refresh_ledger_metrics(self) -> dict:
        """Fold the durable intent-row counts into the 2PC metrics.

        The sequencer runs inside worker processes whose registries the
        operator cannot see, so the pool-wide truth is read from the
        shard files instead: intent rows are immutable once terminal
        and never deleted, which makes the scanned counts monotone and
        the counter publishable by delta.  Returns the current state
        counts (what the gauge now shows).
        """
        started = time.perf_counter()
        counts = self._ledger.intent_counts()
        totals = {
            "prepare": sum(counts.values()),
            "commit": counts.get("committed", 0),
            "abort": counts.get("aborted", 0),
        }
        for phase, total in totals.items():
            delta = total - self._ledger_2pc_seen[phase]
            if delta > 0:
                self._m_ledger_2pc.inc(delta, phase=phase)
                self._ledger_2pc_seen[phase] = total
        for state in ("pending", "committed", "aborted"):
            self._m_ledger_intents.set(counts.get(state, 0), state=state)
        self._m_ledger_latency.observe(
            time.perf_counter() - started, op="refresh"
        )
        return counts


def build_gateway(
    deployment,
    directory: str,
    *,
    workers: int = 2,
    shards: int | None = None,
    max_batch: int | None = None,
    max_inflight: int | None = None,
    max_pending: int | None = None,
    tracing: bool = False,
    trace_threshold: float = 0.25,
    trace_keep: int = 64,
) -> ServiceGateway:
    """One-call gateway over a deployment's provider role.

    Shard files land under ``directory``; ``shards`` defaults to the
    worker count (one hot file per worker, the balanced choice).  The
    gateway shares the deployment's clock, so simulated time drives
    the workers' freshness windows.  ``max_inflight``/``max_pending``
    bound the pool's admission (``None`` keeps it unbounded, the
    pre-overload-control behaviour).

    ``tracing=True`` turns on end-to-end span capture: this process
    gets a :class:`~repro.service.tracing.SpanRecorder` (installed
    *before* construction, so startup intent recovery is traced and
    the pool can register its exemplar hook) and every worker installs
    a :class:`~repro.service.tracing.SpanCollector`.  A trace is kept
    when its boundary span runs at least ``trace_threshold`` seconds,
    errors, or is forced (recovery); the newest ``trace_keep`` kept
    traces survive.
    """
    shard_count = shards if shards is not None else workers
    paths = ShardSet.paths_in_directory(directory, shard_count)
    knobs = {}
    if max_batch is not None:
        knobs["max_batch"] = max_batch
    if tracing:
        tracing_module.configure(latency_threshold=trace_threshold, keep=trace_keep)
    config = ServiceConfig.from_deployment(
        deployment, paths, tracing=tracing, **knobs
    )
    return ServiceGateway(
        config,
        workers=workers,
        clock=deployment.clock,
        max_inflight=max_inflight,
        max_pending=max_pending,
    )
