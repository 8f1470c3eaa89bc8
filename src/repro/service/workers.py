"""Worker processes: the provider's desks, replicated and shard-backed.

Each worker is a full provider desk — the *same*
:class:`~repro.core.actors.provider.ContentProvider` and batch
pipelines as the in-process deployment — wired to:

- the shared per-shard store files (:mod:`repro.service.sharding`),
  so state and the exactly-once gates are common to the whole pool;
- a :class:`ShardedDepositDesk` standing in for the bank's deposit
  side (signature verification needs only the bank's public keys);
- deterministic issuance, so which worker handles a request never
  changes the bytes that come back;
- its own warm fastexp tables, built at startup after a
  :func:`repro.crypto.fastexp.reset` — a worker must not inherit
  whatever exponentiation mode or table registry the parent process
  (a benchmark arm, say) happened to leave behind.

Requests arrive on the worker's queue as ``(request_id, bytes)``
pairs.  A worker blocks for the first one, then takes whatever else is
*already* queued (up to ``max_batch`` items) and never waits for
stragglers: an idle pool answers a lone request at once, and a busy
one gets its batches from the requests that piled up while the worker
was computing — which is where the aggregate verification paths have
something to amortize over.

Where this sits in the stack: ``docs/architecture.md`` (service
layer — the desks the pool's routing and admission control feed).
"""

from __future__ import annotations

import hashlib
import queue as queue_module
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from ..clock import SimClock
from ..core.actors.bank import decompose_amount
from ..core.actors.provider import ContentProvider, ProviderStores
from ..core.messages import Coin
from ..crypto import backend as crypto_backend
from ..crypto import fastexp
from ..crypto.blind_rsa import BlindSigner, batch_verify_blind_signatures
from ..crypto.groups import named_group
from ..crypto.rand import DeterministicRandomSource, default_source
from ..crypto.rsa import RsaPrivateKey, RsaPublicKey
from ..errors import DoubleSpendError, ParameterError, PaymentError, ServiceError
from ..storage.contents import ContentStore
from ..storage.engine import Database
from ..storage.ledger import LedgerEntry
from . import tracing, wire
from .ledger import DepositSequencer, ShardedLedger
from .replay import ReplayCache, ReplayConflictError
from .sharding import (
    ShardedAuditLog,
    ShardedLicenseStore,
    ShardedRevocationList,
    ShardedSpentTokenStore,
    ShardSet,
)

#: Default ceiling on one drained batch: big enough for the aggregate
#: checks to pay, small enough that one batch does not hold a worker
#: (and the requests queued behind it) for long.
DEFAULT_MAX_BATCH = 32


@dataclass(frozen=True)
class CatalogItem:
    """One published content item, as shipped to every worker."""

    content_id: str
    title: str
    price_cents: int
    added_at: int
    package: bytes
    content_key: bytes
    rights_template: str


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a worker needs to become the provider.

    Pure data (ints, bytes, frozen dataclasses), so it crosses the
    process boundary under any multiprocessing start method.
    """

    shard_paths: tuple[str, ...]
    rng_seed: bytes
    clock_start: int
    group_name: str
    issuer_key: RsaPublicKey
    license_key: RsaPrivateKey
    bank_keys: dict[int, RsaPublicKey]
    catalog: tuple[CatalogItem, ...]
    #: Per-denomination private keys for the withdrawal desks (None
    #: builds a deposit-only pool — verification needs only the public
    #: keys above, and not every deployment wants its mint in every
    #: worker process).
    bank_signing_keys: dict[int, RsaPrivateKey] | None = None
    provider_name: str = "content-provider"
    bank_account: str = "content-provider-account"
    escrow_key_element: int | None = None
    max_batch: int = DEFAULT_MAX_BATCH
    #: Worker-side tracing switch: when true each worker installs a
    #: :class:`~repro.service.tracing.SpanCollector` and ships spans
    #: back on the response queue (the gateway's recorder makes the
    #: keep decision; workers never decide retention).
    tracing: bool = False
    #: Arithmetic backend every worker pins before warming its tables
    #: (captured from the parent's active backend at config-build
    #: time), so a pool's throughput numbers are attributable to one
    #: backend regardless of what each child process would have
    #: defaulted to.
    backend_name: str = field(default_factory=crypto_backend.backend_name)
    #: Name of the gateway's shared-memory segment holding the
    #: serialized fastexp tables (``None`` = no segment; workers build
    #: their own).  See :func:`warm_fastexp` for the build/attach/cow
    #: decision.
    fastexp_shm: str | None = None
    #: Marker stamped on the fastexp module by whoever built the warm
    #: tables for *this* config.  A forked worker that finds the same
    #: token in its (copy-on-write-inherited) fastexp globals knows the
    #: registry it holds is the gateway's and skips warmup entirely.
    warm_token: str | None = None

    @classmethod
    def from_deployment(
        cls,
        deployment,
        shard_paths,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        tracing: bool = False,
    ) -> "ServiceConfig":
        """Capture a built deployment's provider as a worker config.

        The deployment stays usable; the service layer takes over the
        provider *role* — same keys, same catalog, fresh sharded state.
        """
        provider = deployment.provider
        rng = provider._rng
        seed = getattr(rng, "seed", None)
        if seed is None:
            # Non-deterministic parent: issuance stays deterministic
            # *across workers* by deriving every worker's rng from one
            # fresh shared seed.
            seed = default_source().random_bytes(32)
        catalog = []
        contents = provider._contents
        for entry in provider.catalog():
            catalog.append(
                CatalogItem(
                    content_id=entry.content_id,
                    title=entry.title,
                    price_cents=entry.price_cents,
                    added_at=entry.added_at,
                    package=contents.package(entry.content_id),
                    content_key=contents.content_key(entry.content_id),
                    rights_template=contents.rights_template(entry.content_id),
                )
            )
        return cls(
            shard_paths=tuple(shard_paths),
            rng_seed=bytes(seed),
            clock_start=deployment.clock.now(),
            group_name=deployment.group.name,
            issuer_key=deployment.issuer.certificate_key,
            license_key=provider._license_key,
            bank_keys=dict(deployment.bank.public_keys()),
            bank_signing_keys=(
                dict(deployment.bank.signing_keys())
                if hasattr(deployment.bank, "signing_keys")
                else None
            ),
            catalog=tuple(catalog),
            provider_name=provider.name,
            bank_account=provider._bank_account,
            escrow_key_element=deployment.issuer.escrow_key.y,
            max_batch=max_batch,
            tracing=tracing,
        )


class ShardedDepositDesk:
    """The bank's account-facing side, runnable in any worker.

    Deposits verify with the per-denomination *public* keys and commit
    through the :class:`~repro.service.ledger.DepositSequencer`: a
    durable intent record on the account's home shard, coin spends on
    their home shards under the intent id, then one commit transaction
    that credits the balance — so a multi-coin payment lands atomically
    across shard files and a worker crash mid-deposit is recovered (not
    reconciled by hand) at the next pool start.  Withdrawals debit the
    same sharded ledger and blind-sign with the provisioned private
    keys.  Every balance read is the pool-wide durable figure from
    :meth:`balance` — the per-worker ``credited()`` tally this desk
    used to keep (and its deprecated alias) is gone.
    """

    def __init__(
        self,
        *,
        public_keys: dict[int, RsaPublicKey],
        spent: ShardedSpentTokenStore,
        ledger: ShardedLedger,
        clock,
        signing_keys: dict[int, RsaPrivateKey] | None = None,
        name: str = "deposit-desk",
        replay: ReplayCache | None = None,
    ):
        self.name = name
        self._keys = dict(public_keys)
        self._spent = spent
        self._ledger = ledger
        self._clock = clock
        self._replay = replay
        self._signers = (
            None
            if signing_keys is None
            else {d: BlindSigner(key) for d, key in signing_keys.items()}
        )
        self._sequencer = DepositSequencer(
            ledger=ledger, spent=spent, clock=clock
        )

    @property
    def replay(self) -> ReplayCache | None:
        return self._replay

    # -- accounts (the BankSurface read half) ------------------------------

    def open_account(self, account_id: str, *, initial_balance: int = 0) -> None:
        """Idempotent: accounts also auto-open on first deposit, so a
        duplicate-open error would be meaningless here.  A nonzero
        ``initial_balance`` needs a real opening (duplicate-checked),
        same as the in-process bank."""
        if initial_balance:
            self._ledger.open_account(
                account_id, at=self._clock.now(), initial_balance=initial_balance
            )
        else:
            self._ledger.ensure_account(account_id, at=self._clock.now())

    def balance(self, account_id: str) -> int:
        """The pool-wide durable balance from the sharded ledger —
        every worker (and the gateway) reads the same figure."""
        return self._ledger.balance(account_id)

    def statement(self, account_id: str, *, limit: int | None = None) -> list[LedgerEntry]:
        """The account's journal (deposits with transcripts, withdrawals,
        opens), oldest first."""
        return self._ledger.statement(account_id, limit=limit)

    # -- withdrawal (blind) ------------------------------------------------

    @property
    def denominations(self) -> tuple[int, ...]:
        """Supported coin values, largest first (same contract as the
        in-process bank — ``withdraw_coins`` greedy-splits on these)."""
        return tuple(sorted(self._keys, reverse=True))

    def decompose(self, amount: int) -> list[int]:
        """Greedy denomination split of ``amount`` (raises if impossible)."""
        return decompose_amount(amount, self.denominations)

    def withdraw_blind(self, account_id: str, denomination: int, blinded: int) -> int:
        """Debit the account on its home shard and blind-sign one coin
        request — the service twin of ``Bank.withdraw_blind``, with the
        debit durable and funds-checked under the shard's write lock."""
        if self._signers is None:
            raise ServiceError(
                "pool has no withdrawal keys (deposit-only deployment)"
            )
        if not self._ledger.has_account(account_id):
            raise PaymentError(f"no account {account_id!r}")
        signer = self._signers.get(denomination)
        if signer is None:
            raise PaymentError(f"unsupported denomination {denomination}")
        if not 0 <= blinded < signer.public_key.n:
            raise ParameterError("blinded value out of range")
        self._ledger.debit(account_id, denomination, at=self._clock.now())
        return signer.sign_blinded(blinded)

    # -- deposit -----------------------------------------------------------

    def public_key(self, denomination: int) -> RsaPublicKey:
        key = self._keys.get(denomination)
        if key is None:
            raise PaymentError(f"unsupported denomination {denomination}")
        return key

    def verify_coin(self, coin: Coin) -> None:
        """Signature-only check (no spend state change)."""
        from ..crypto.blind_rsa import verify_blind_signature

        verify_blind_signature(
            coin.payload(), coin.signature, self.public_key(coin.value)
        )

    def verify_coins(self, coins: list[Coin]) -> None:
        by_denomination: dict[int, list[Coin]] = {}
        for coin in coins:
            by_denomination.setdefault(coin.value, []).append(coin)
        for denomination, batch in by_denomination.items():
            key = self.public_key(denomination)
            batch_verify_blind_signatures(
                [(coin.payload(), coin.signature) for coin in batch], key
            )

    def deposit_batch(self, account_id: str, coins: list[Coin]) -> int:
        """Verify and credit one payment's coins, exactly once each.

        Returns the amount credited.  Raises
        :class:`~repro.errors.DoubleSpendError` when any serial is
        genuinely owned by a committed deposit — with this payment's
        own spends released and its intent aborted, so a refused
        deposit costs the payer nothing.  A coin transiently held by
        another payment's *pending* intent is waited out, not refused;
        an owner stuck past the wait budget surfaces as a retryable
        :class:`~repro.errors.ServiceError`, never a misuse verdict
        (see :class:`~repro.service.ledger.DepositSequencer`).
        """
        coins = list(coins)
        # Unknown accounts are opened on first deposit: a merchant
        # account service-side is a ledger row, and requiring an
        # out-of-band opening would make the deposit wire kind
        # unusable for anyone but the provider.
        self.verify_coins(coins)
        return self._sequencer.deposit(account_id, coins)

    def deposit_idempotent(
        self, account_id: str, coins: list[Coin], nonce: bytes
    ) -> bytes:
        """Deposit keyed on an idempotency nonce; returns response bytes.

        The replay path deals in *encoded* responses so a served retry
        is byte-identical to the original receipt.  Three outcomes:

        - the nonce has a valid completed record → the cached bytes,
          no re-execution;
        - fresh request → executes, with the response recorded at the
          sequencer's ``pre_commit`` seam (durable strictly before the
          credit), then the same bytes returned;
        - the execution hits :class:`~repro.errors.DoubleSpendError`
          or a nonce conflict → one re-lookup, because the losing race
          arm's *twin may be the original*: if a record validates now,
          the refusal was a retry artifact and the original receipt is
          the truthful answer.  Only when the re-lookup misses is the
          refusal genuine and re-raised.
        """
        if self._replay is None:
            raise ServiceError("this desk has no replay cache configured")
        coins = list(coins)
        cached = self._replay.lookup(nonce)
        if cached is not None:
            return cached
        self.verify_coins(coins)
        amount = sum(coin.value for coin in coins)
        response = wire.encode_response({"account": account_id, "credited": amount})

        def _record(intent_id: bytes) -> None:
            self._replay.record(
                nonce,
                response=response,
                intent_id=intent_id,
                account=account_id,
                amount=amount,
                at=self._clock.now(),
            )

        try:
            self._sequencer.deposit(account_id, coins, pre_commit=_record)
            return response
        except (DoubleSpendError, ReplayConflictError):
            cached = self._replay.lookup(nonce)
            if cached is not None:
                return cached
            raise

    def record_completed(self, nonce: bytes, response: bytes) -> bytes:
        """Bind ``nonce`` to a completed non-2PC operation's response.

        Returns the bytes to answer with: normally ``response``, but a
        lost record race (a duplicate delivery's twin recorded first)
        yields the twin's bytes — both executions answered identically
        beats two answers diverging.
        """
        if self._replay is None:
            return response
        try:
            self._replay.record(
                nonce,
                response=response,
                intent_id=b"",
                account="",
                amount=0,
                at=self._clock.now(),
            )
            return response
        except ReplayConflictError:
            cached = self._replay.lookup(nonce)
            return cached if cached is not None else response


def build_worker_provider(
    config: ServiceConfig, worker_index: int, shards: ShardSet
) -> tuple[ContentProvider, ShardedDepositDesk, SimClock]:
    """A full provider desk over the shared shards, for one worker."""
    clock = SimClock(config.clock_start)
    ledger = ShardedLedger(shards)
    desk = ShardedDepositDesk(
        public_keys=config.bank_keys,
        spent=ShardedSpentTokenStore(shards, "ecash"),
        ledger=ledger,
        clock=clock,
        signing_keys=config.bank_signing_keys,
        replay=ReplayCache(shards, ledger),
    )
    stores = ProviderStores(
        contents=_catalog_store(config),
        licenses=ShardedLicenseStore(shards),
        revocations=ShardedRevocationList(shards),
        spent_tokens=ShardedSpentTokenStore(shards, "anon-license"),
        request_nonces=ShardedSpentTokenStore(shards, "request-nonce"),
        audit=ShardedAuditLog(shards, preferred_shard=worker_index),
    )
    provider = ContentProvider(
        rng=DeterministicRandomSource(config.rng_seed),
        clock=clock,
        issuer_certificate_key=config.issuer_key,
        bank=desk,
        stores=stores,
        license_key=config.license_key,
        name=config.provider_name,
        bank_account=config.bank_account,
        deterministic_issuance=True,
    )
    return provider, desk, clock


def _catalog_store(config: ServiceConfig) -> ContentStore:
    """The static catalog, rebuilt in worker-local memory.

    Published content never changes under the pool (publishing happens
    before the gateway starts), so every worker keeps a private copy —
    reads of packages and content keys then never touch a shared file.
    ``check_same_thread=False``: the gateway's copy answers catalog
    reads from whichever thread serves them (the socket front-end's
    control channel in particular); the store is read-only once built
    and CPython's sqlite3 runs serialized, so cross-thread reads are
    safe.
    """
    store = ContentStore(Database(check_same_thread=False))
    for item in config.catalog:
        store.add(
            item.content_id,
            title=item.title,
            price_cents=item.price_cents,
            added_at=item.added_at,
            package=item.package,
            content_key=item.content_key,
            rights_template=item.rights_template,
        )
    return store


#: The shared-memory segment a worker attached its lazy tables to.
#: Module-level on purpose: the registry's :class:`~repro.crypto.
#: fastexp._SharedRows` views point into this mapping, so it must stay
#: alive as long as the tables are registered (released only by
#: :func:`_detach_shared_tables` on clean worker exit).
_SHARED_SEGMENT = None


def _attach_shared_tables(name: str) -> int:
    """Map the gateway's table segment and register its tables lazily.

    Returns the number of tables registered.  Ownership notes: the
    *gateway* owns the unlink.  Workers (fork or spawn) inherit the
    gateway's ``resource_tracker`` process, so the attach's implicit
    registration is a set-add of an already-registered name — it must
    NOT be unregistered here, or the gateway's own registration would
    vanish from the shared cache (unmatched-unregister noise at
    unlink time, and no leaked-segment cleanup if the whole tree
    crashes).  A worker dying — even by SIGKILL — cannot tear the
    name out from under its siblings either way: the shared tracker
    only reclaims names once *every* participant is gone.
    """
    global _SHARED_SEGMENT
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=name)
    count = fastexp.load_shared_tables(segment.buf)
    _SHARED_SEGMENT = segment
    return count


def _detach_shared_tables() -> None:
    """Drop the lazy tables and close this process's mapping.

    Clean-shutdown path only (``worker_main``'s ``finally``): the
    registry's ``_SharedRows`` views must die before the segment can
    close, otherwise ``SharedMemory.__del__`` spews ``BufferError:
    cannot close exported pointers exist`` at interpreter teardown.
    The name itself is untouched — unlinking is the gateway's job.
    """
    global _SHARED_SEGMENT
    segment = _SHARED_SEGMENT
    if segment is None:
        return
    _SHARED_SEGMENT = None
    fastexp.reset()  # releases every exported view into the mapping
    try:
        segment.close()
    except BufferError:  # a stray table survived reset(); leave it to
        pass             # the OS — unlink still reclaims the memory


def warm_fastexp(config: ServiceConfig) -> tuple[str, str]:
    """Per-worker arithmetic warm-up: build, attach, or inherit.

    Pins the config's arithmetic backend (so a spawn-started child
    doesn't silently run a different backend than the pool was
    configured for), then takes the cheapest route to warm tables:

    - ``"cow"`` — the fastexp module already carries ``config.
      warm_token``: this process was forked from the gateway after it
      built the tables, and copy-on-write inheritance means the
      registry is *already warm*.  Only the mode/enabled switches are
      normalized; zero exponentiations, zero copies.
    - ``"attach"`` — ``config.fastexp_shm`` names a shared-memory
      segment (the spawn path, or a fork that lost the token): map it
      and register lazily-materializing tables — O(map) now, rows
      decoded on first use.
    - ``"build"`` — no segment (direct :class:`WorkerPool` use, tests):
      reset and compute the tables from scratch, exactly as before.

    Returns ``(backend name, mode)`` — the warm-up record the E11/E18
    sweeps and the ``p2drm_worker_warmup_seconds{mode}`` metric
    attribute costs to.
    """
    if config.backend_name:
        crypto_backend.set_backend(config.backend_name)
    if (
        config.warm_token is not None
        and fastexp.warm_token() == config.warm_token
        and fastexp.table_count() > 0
    ):
        # Inherited the gateway's warm registry across fork.  Restore
        # the switches a worker expects without dropping the tables.
        fastexp.set_tables_enabled(True)
        fastexp.set_exp_mode(fastexp.default_exp_mode())
        return crypto_backend.backend_name(), "cow"
    fastexp.reset()
    if config.fastexp_shm is not None:
        try:
            count = _attach_shared_tables(config.fastexp_shm)
        except (OSError, ValueError, ParameterError):
            # Segment gone or malformed: fall through to a local build
            # — the shared tables are an optimization, never a
            # correctness dependency.
            count = 0
        if count:
            fastexp.set_warm_token(config.warm_token)
            return crypto_backend.backend_name(), "attach"
    group = named_group(config.group_name)
    group.precompute_generator()
    if config.escrow_key_element is not None:
        group.precompute_base(config.escrow_key_element)
    fastexp.set_warm_token(config.warm_token)
    return crypto_backend.backend_name(), "build"


def _warm_token_for(config: ServiceConfig) -> str:
    """Deterministic warm-token for a config's table *spec*.

    Two configs that would build the same tables (same group, same
    escrow element, same backend) share a token — all the COW check
    needs is "the registry this process carries was warmed for exactly
    this spec", not segment identity.
    """
    digest = hashlib.sha256()
    digest.update(config.group_name.encode())
    digest.update(str(config.escrow_key_element).encode())
    digest.update((config.backend_name or "").encode())
    return digest.hexdigest()


def publish_shared_tables(config: ServiceConfig):
    """Build the warm tables once, here, and publish them for workers.

    Runs the same build :func:`warm_fastexp` would run in every worker
    — but in the *gateway* process, exactly once — then serializes the
    registry into a fresh ``multiprocessing.shared_memory`` segment and
    stamps the warm token on this process's fastexp module.  Returns
    ``(config', segment)`` where ``config'`` carries the segment name
    and token, so:

    - forked workers find the token in their copy-on-write-inherited
      globals and skip warmup entirely (``mode="cow"``);
    - spawned workers attach the segment and materialize rows lazily
      (``mode="attach"``);
    - the caller owns ``segment`` and must ``close()`` + ``unlink()``
      it when the pool stops (workers deliberately never unlink — see
      :func:`_attach_shared_tables`).

    If the host cannot create shared memory the original config comes
    back with ``segment=None`` and every worker simply builds its own
    tables, the pre-shared behaviour.
    """
    if config.backend_name:
        crypto_backend.set_backend(config.backend_name)
    token = _warm_token_for(config)
    if fastexp.warm_token() != token or fastexp.table_count() == 0:
        fastexp.reset()
        group = named_group(config.group_name)
        group.precompute_generator()
        if config.escrow_key_element is not None:
            group.precompute_base(config.escrow_key_element)
        fastexp.set_warm_token(token)
    blob = fastexp.serialize_tables()
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=len(blob))
    except (ImportError, OSError):
        return config, None
    segment.buf[: len(blob)] = blob
    return replace(config, fastexp_shm=segment.name, warm_token=token), segment


@dataclass
class _Drained:
    """One coalesced queue batch plus whether shutdown was seen."""

    items: list = field(default_factory=list)
    shutdown: bool = False


def _drain_batch(request_queue, max_batch: int) -> _Drained:
    """Block for one queue item, then take only what is already queued.

    No deadline and no timed ``get``: a batch is whatever piled up while
    the worker was busy, capped at ``max_batch``.  A ``None`` sentinel
    or a torn-down queue (``EOFError``/``OSError``) marks shutdown; the
    items drained before it are kept.
    """
    drained = _Drained()
    try:
        item = request_queue.get()
    except (EOFError, OSError):
        drained.shutdown = True
        return drained
    while item is not None:
        drained.items.append(item)
        if len(drained.items) >= max_batch:
            return drained
        try:
            item = request_queue.get_nowait()
        except queue_module.Empty:
            return drained
        except (EOFError, OSError):
            break
    drained.shutdown = True
    return drained


def worker_main(worker_index, config, request_queue, response_queue):
    """Entry point of one worker process.

    Builds the desk, then loops: drain a batch from the queue, run the
    batch pipelines, push ``(request_id, response_bytes)`` results.  A
    ``None`` queue item shuts the worker down cleanly.

    The first thing on the response queue is a ticketless warmup
    announcement ``(None, ("warmup", index, mode, seconds))`` — the
    collector turns it into the ``p2drm_worker_warmup_seconds{mode}``
    histogram and the pool's ``warmup_reports``.
    """
    warm_start = time.monotonic()
    _backend_name, warm_mode = warm_fastexp(config)
    try:
        response_queue.put(
            (None, ("warmup", worker_index, warm_mode,
                    time.monotonic() - warm_start))
        )
    except (OSError, ValueError):
        pass  # pool torn down before we finished warming; exit via loop
    if config.tracing:
        tracing.install(tracing.SpanCollector())
    shards = ShardSet(config.shard_paths)
    try:
        provider, desk, clock = build_worker_provider(config, worker_index, shards)
        while True:
            drained = _drain_batch(request_queue, config.max_batch)
            if drained.items:
                try:
                    _process_batch(
                        provider, desk, clock, drained.items, response_queue,
                        worker_index=worker_index,
                    )
                except Exception as exc:
                    # The per-item pipelines catch their own failures;
                    # anything escaping here is a shared-stage error
                    # (a busy shard in an aggregate pass, say).  Fail
                    # the batch, keep the worker: one transient error
                    # must not permanently degrade the pool.  Items
                    # already answered just produce a duplicate
                    # response, which the gateway parks and bounds.
                    failure = ServiceError(f"worker batch failed: {exc!r}")
                    for request_id, *_ in drained.items:
                        response_queue.put(
                            (request_id, wire.encode_response(failure))
                        )
            if drained.shutdown:
                return
    finally:
        shards.close()
        _detach_shared_tables()


class _BatchTraces:
    """Per-batch trace bookkeeping inside a worker.

    For every traced request the batch holds a pre-allocated
    ``worker.request`` span id: spans recorded while the request is
    being processed (2PC phases, shard spends) parent under it via
    :func:`~repro.service.tracing.activate`, and the span itself is
    recorded when the response is enqueued.  Responses for traced
    requests cross the queue as ``(request_id, payload, spans)``
    3-tuples; untraced ones stay 2-tuples.
    """

    def __init__(self, worker_index: int, batch_start: float):
        self._collector = tracing.collector()
        self._worker = worker_index
        self._batch_start = batch_start
        self._states: dict[int, tuple[tracing.TraceContext, bytes, str]] = {}

    def open(self, item, envelope: wire.RequestEnvelope) -> None:
        """Start tracing one parsed queue item (a no-op when the worker
        collects no spans or the envelope carries no trace)."""
        ctx = envelope.trace
        if self._collector is None or ctx is None:
            return
        request_id = item[0]
        self._states[request_id] = (ctx, tracing.new_span_id(), envelope.kind)
        submit_mono = item[3] if len(item) > 3 else None
        if submit_mono is not None:
            tracing.record_span(
                "pool.queue",
                trace_id=ctx.trace_id,
                parent_id=ctx.span_id,
                start=submit_mono,
                duration=self._batch_start - submit_mono,
                attrs={"worker": self._worker},
            )

    @property
    def any_traced(self) -> bool:
        return bool(self._states)

    def scope(self, request_id: int):
        """Ambient context for one request's processing: children (2PC
        phase spans, shard spends) parent under its worker span."""
        state = self._states.get(request_id)
        if state is None:
            return nullcontext()
        ctx, span_id, _kind = state
        return tracing.activate(tracing.TraceContext(ctx.trace_id, span_id))

    def replicate_stages(self, stage_log, members) -> None:
        """Copy batch-wide stage timings onto each traced member: the
        aggregate pipeline ran once, but every member's trace should
        read as a complete story."""
        if not stage_log:
            return
        for request_id, *_ in members:
            state = self._states.get(request_id)
            if state is None:
                continue
            ctx, span_id, _kind = state
            for op, stage, start, duration, n in stage_log:
                tracing.record_span(
                    "worker.stage",
                    trace_id=ctx.trace_id,
                    parent_id=span_id,
                    start=start,
                    duration=duration,
                    attrs={"op": op, "stage": stage, "n": n},
                )

    def respond(self, response_queue, request_id: int, payload: bytes) -> None:
        state = self._states.pop(request_id, None)
        if state is None:
            response_queue.put((request_id, payload))
            return
        ctx, span_id, kind = state
        outcome, error_type = wire.peek_response_outcome(payload)
        tracing.record_span(
            "worker.request",
            trace_id=ctx.trace_id,
            parent_id=ctx.span_id,
            span_id=span_id,
            start=self._batch_start,
            duration=time.monotonic() - self._batch_start,
            status="error" if outcome == "error" else "ok",
            error=error_type or "",
            attrs={"op": kind, "worker": self._worker},
        )
        response_queue.put(
            (request_id, payload, self._collector.drain(ctx.trace_id))
        )


def _precheck_replay(desk, entries, traces, response_queue):
    """Answer any entry whose idempotency nonce already resolved;
    returns the entries that still need execution.

    A lookup refusal (a deposit record mid-commit under the same
    nonce) answers that entry with the typed retryable error — the
    client re-asks rather than this batch guessing.
    """
    if desk.replay is None:
        return entries
    survivors = []
    for entry in entries:
        request_id, _request, nonce = entry
        if nonce is None:
            survivors.append(entry)
            continue
        try:
            cached = desk.replay.lookup(nonce)
        except ServiceError as exc:
            traces.respond(response_queue, request_id, wire.encode_response(exc))
            continue
        if cached is None:
            survivors.append(entry)
        else:
            traces.respond(response_queue, request_id, cached)
    return survivors


def _respond_completed(
    desk, traces, response_queue, request_id, nonce, result
) -> None:
    """Encode and send one non-2PC result, with replay bookkeeping.

    Success with a nonce records the response (bare — completion *is*
    the evidence).  Failure with a nonce re-checks the cache first: a
    duplicate delivery's twin may have completed between our precheck
    and our execution, making this refusal a retry artifact — the
    twin's recorded response is then the truthful answer.  Errors are
    never cached: a transient refusal must not become sticky.
    """
    response = wire.encode_response(result)
    if nonce is not None and desk.replay is not None:
        if isinstance(result, BaseException):
            try:
                cached = desk.replay.lookup(nonce)
            except ServiceError:
                cached = None
            if cached is not None:
                response = cached
        else:
            response = desk.record_completed(nonce, response)
    traces.respond(response_queue, request_id, response)


def _process_batch(
    provider, desk, clock, items, response_queue, worker_index: int = 0
) -> None:
    """Parse, dispatch per kind through the batch pipelines, respond.

    Each payload is parsed exactly once (:func:`~repro.service.wire.
    parse_request`); the pipelines carry ``(request_id, request,
    nonce)`` entries from there on.
    """
    batch_start = time.monotonic()
    # The worker clock follows the *gateway's* stamps — time is
    # distributed from the operator side of the wire.  Request bodies
    # also carry timestamps, but those are client-controlled: trusting
    # them here (even validated ones) would let signed-but-bogus
    # stamps ratchet the clock and freshness-DoS honest traffic.
    latest_stamp = max(item[2] for item in items)
    if latest_stamp > clock.now():
        clock.set(latest_stamp)

    traces = _BatchTraces(worker_index, batch_start)
    by_kind: dict[str, list] = defaultdict(list)
    for item in items:
        request_id = item[0]
        try:
            envelope = wire.parse_request(item[1])
            traces.open(item, envelope)
            by_kind[envelope.kind].append(
                (request_id, envelope.request(), envelope.nonce)
            )
        except Exception as exc:
            # Typed answer for the peer: an undecodable envelope or a
            # malformed body is this request's outcome, not the batch's.
            traces.respond(response_queue, request_id, wire.encode_response(exc))

    # Idempotent replay for the non-2PC kinds: a nonce whose original
    # already completed answers from the cache *before* re-execution
    # (which would burn its one-shot request nonce and turn an honest
    # retry into a replay verdict).  Deposits run their own, stronger
    # intent-gated path below.
    sells, redeems, exchanges, withdraws = (
        _precheck_replay(desk, by_kind[kind], traces, response_queue)
        for kind in (
            wire.KIND_SELL, wire.KIND_REDEEM, wire.KIND_EXCHANGE, wire.KIND_WITHDRAW
        )
    )

    if sells:
        with _stage_log(provider, traces.any_traced) as stage_log:
            results = provider.sell_batch([request for _, request, _ in sells])
        traces.replicate_stages(stage_log, sells)
        for (request_id, _, nonce), result in zip(sells, results):
            _respond_completed(
                desk, traces, response_queue, request_id, nonce, result
            )
    if redeems:
        with _stage_log(provider, traces.any_traced) as stage_log:
            results = provider.redeem_batch([request for _, request, _ in redeems])
        traces.replicate_stages(stage_log, redeems)
        for (request_id, _, nonce), result in zip(redeems, results):
            _respond_completed(
                desk, traces, response_queue, request_id, nonce, result
            )
    for request_id, request, nonce in exchanges:
        with traces.scope(request_id):
            try:
                result = provider.exchange(request)
            except Exception as exc:
                result = exc
        _respond_completed(desk, traces, response_queue, request_id, nonce, result)
    for request_id, request, nonce in by_kind[wire.KIND_DEPOSIT]:
        with traces.scope(request_id):
            try:
                if nonce is not None and desk.replay is not None:
                    response = desk.deposit_idempotent(
                        request.account, list(request.coins), nonce
                    )
                else:
                    credited = desk.deposit_batch(
                        request.account, list(request.coins)
                    )
                    response = wire.encode_response(
                        {"account": request.account, "credited": credited}
                    )
            except Exception as exc:
                response = wire.encode_response(exc)
        traces.respond(response_queue, request_id, response)
    for request_id, request, nonce in withdraws:
        with traces.scope(request_id):
            try:
                signature = desk.withdraw_blind(
                    request.account, request.denomination, request.blinded
                )
                result = {
                    "account": request.account,
                    "denomination": request.denomination,
                    "signature": signature,
                }
            except Exception as exc:
                result = exc
        _respond_completed(desk, traces, response_queue, request_id, nonce, result)


class _stage_log:
    """Context manager installing the provider's batch stage hook.

    Yields the list the hook appends ``(op, stage, start, duration, n)``
    timing records to; always uninstalls, so an exploding pipeline
    never leaves a stale hook on the shared provider.
    """

    def __init__(self, provider, enabled: bool):
        self._provider = provider
        self._log: list = []
        self._enabled = enabled

    def __enter__(self):
        if self._enabled:
            self._provider.stage_hook = self._log.append
        return self._log

    def __exit__(self, *exc_info):
        self._provider.stage_hook = None
        return False


def require_start_method() -> str:
    """The multiprocessing start method the pool uses on this host.

    ``P2DRM_START_METHOD`` (``fork`` / ``spawn`` / ``forkserver``)
    overrides the platform default — CI uses it to force the spawn
    path (and therefore the shared-memory table attach) on Linux,
    where fork would otherwise always win.
    """
    import multiprocessing
    import os
    import sys

    methods = multiprocessing.get_all_start_methods()
    forced = os.environ.get("P2DRM_START_METHOD")
    if forced:
        if forced not in methods:
            raise ServiceError(
                f"P2DRM_START_METHOD={forced!r} is not available on this"
                f" host (have {methods})"
            )
        return forced
    if sys.platform == "linux" and "fork" in methods:
        # Cheapest on Linux, and workers rebuild their own state anyway
        # (warm_fastexp resets whatever was inherited).  Elsewhere —
        # macOS in particular, where forked CPython children abort in
        # system frameworks — spawn is the safe choice, which is why
        # CPython itself switched those defaults.
        return "fork"
    if "spawn" in methods:
        return "spawn"
    raise ServiceError("no usable multiprocessing start method")
