"""Per-shard stores behind the classic store APIs.

One provider database cannot absorb millions of users; this module
splits the provider's hot stores — spent tokens, request nonces, the
licence register, the revocation list, the audit log — across N SQLite
*files*, keyed by token-id hash.  Partitioning by hash means every
token has exactly one home shard, so the exactly-once invariants stay
local: a double redemption races two workers *on the same shard file*,
where SQLite's write lock (plus the stores' immediate transactions)
serializes them.

The cross-shard views here preserve the single-store method surfaces,
so :class:`~repro.core.actors.provider.ContentProvider` runs unchanged
against a :class:`ShardSet` — in a worker process (writing), or in the
gateway process (reading what the workers committed, via WAL).

Shard count is a *data* parameter, worker count an *execution* one:
``shards >= workers`` keeps every worker busy, and the hash keeps the
mapping stable when either changes.

Where this sits in the stack: ``docs/architecture.md`` (service
layer — the partitioning the pool's shard-affine routing targets).
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Sequence

from ..crypto.hashes import sha256
from ..crypto.rsa import RsaPrivateKey
from ..errors import ParameterError
from ..storage.audit import AuditEntry, AuditLog
from ..storage.engine import Database
from ..storage.licenses import LicenseRecord, LicenseStore
from ..storage.merkle import MerkleTree
from ..storage.revocation import (
    RevocationEntry,
    RevocationList,
    SignedSnapshot,
    _snapshot_payload,
)
from ..storage.spent_tokens import SpentRecord, SpentTokenStore


def shard_index(token: bytes, n_shards: int) -> int:
    """The home shard of ``token`` — stable across processes and runs.

    SHA-256 based, not ``hash()``: Python's string hashing is salted
    per process, and two processes disagreeing about a token's home
    shard would split the exactly-once gate.
    """
    if n_shards < 1:
        raise ParameterError("need at least one shard")
    return int.from_bytes(sha256(bytes(token))[:8], "big") % n_shards


class ShardSet:
    """N shard databases, opened once and closed together."""

    def __init__(self, paths: Sequence[str]):
        if not paths:
            raise ParameterError("need at least one shard path")
        self._paths = list(paths)
        # check_same_thread=False: each process serializes its own
        # access, but a gateway may touch its read views from whichever
        # thread collects worker responses.
        self._databases = [
            Database(path, check_same_thread=False) for path in self._paths
        ]

    @staticmethod
    def paths_in_directory(directory: str, count: int) -> list[str]:
        """The canonical shard-file layout under ``directory``."""
        os.makedirs(directory, exist_ok=True)
        return [
            os.path.join(directory, f"shard-{i:03d}.sqlite") for i in range(count)
        ]

    @classmethod
    def in_directory(cls, directory: str, count: int) -> "ShardSet":
        """``count`` shard files under ``directory`` (created if absent)."""
        return cls(cls.paths_in_directory(directory, count))

    @classmethod
    def in_memory(cls, count: int) -> "ShardSet":
        """In-memory shards — single-process unit tests of the views."""
        if count < 1:
            raise ParameterError("need at least one shard")
        shard_set = cls.__new__(cls)
        shard_set._paths = [":memory:"] * count
        shard_set._databases = [Database() for _ in range(count)]
        return shard_set

    def __len__(self) -> int:
        return len(self._databases)

    @property
    def paths(self) -> list[str]:
        return list(self._paths)

    @property
    def databases(self) -> list[Database]:
        return list(self._databases)

    def index_for(self, token: bytes) -> int:
        return shard_index(token, len(self._databases))

    def database_for(self, token: bytes) -> Database:
        return self._databases[self.index_for(token)]

    def close(self) -> None:
        for database in self._databases:
            database.close()

    def __enter__(self) -> "ShardSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedSpentTokenStore:
    """:class:`~repro.storage.spent_tokens.SpentTokenStore` over shards."""

    def __init__(self, shards: ShardSet, kind: str):
        self._shards = shards
        self._kind = kind
        self._stores = [SpentTokenStore(db, kind) for db in shards.databases]

    @property
    def kind(self) -> str:
        return self._kind

    def _store_for(self, token_id: bytes) -> SpentTokenStore:
        return self._stores[self._shards.index_for(token_id)]

    def shard_for(self, token_id: bytes) -> int:
        """The token's home shard index (also a trace attribute — the
        index is routing structure, the token itself never leaves)."""
        return self._shards.index_for(token_id)

    def try_spend(
        self, token_id: bytes, *, at: int, transcript: bytes = b""
    ) -> SpentRecord | None:
        from . import tracing

        if tracing.enabled() and tracing.current_context() is not None:
            with tracing.span(
                "shard.spend",
                kind=self._kind,
                shard=self._shards.index_for(token_id),
            ):
                return self._store_for(token_id).try_spend(
                    token_id, at=at, transcript=transcript
                )
        return self._store_for(token_id).try_spend(
            token_id, at=at, transcript=transcript
        )

    def is_spent(self, token_id: bytes) -> bool:
        return self._store_for(token_id).is_spent(token_id)

    def record_for(self, token_id: bytes) -> SpentRecord | None:
        return self._store_for(token_id).record_for(token_id)

    def unspend_if(self, token_id: bytes, transcript: bytes) -> bool:
        return self._store_for(token_id).unspend_if(token_id, transcript)

    def count(self) -> int:
        return sum(store.count() for store in self._stores)

    def prune_oldest(self, max_records_per_shard: int) -> int:
        """Bound each shard to ``max_records_per_shard`` rows of this kind.

        Cache-flavoured kinds only (the idempotent-replay response
        cache); see :meth:`SpentTokenStore.prune_oldest`.  The bound is
        per shard — tokens hash uniformly, so the global cap is
        approximately ``shards * max_records_per_shard`` without any
        cross-shard coordination.  Returns total rows deleted.
        """
        return sum(
            store.prune_oldest(max_records_per_shard) for store in self._stores
        )

    @property
    def stores(self) -> list[SpentTokenStore]:
        """Per-shard stores in shard order (offline audit iteration)."""
        return list(self._stores)

    def spent_between(self, start: int, end: int) -> list[SpentRecord]:
        merged: list[SpentRecord] = []
        for store in self._stores:
            merged.extend(store.spent_between(start, end))
        merged.sort(key=lambda record: (record.spent_at, record.token_id))
        return merged


def _signed_snapshot(
    ids: list[bytes], signing_key: RsaPrivateKey
) -> tuple[SignedSnapshot, MerkleTree]:
    """The one place a sharded LRL snapshot is assembled and signed.

    Version, count, root and the returned tree all derive from the
    same ``ids`` list — device sync and non-revocation proofs must
    never be built from diverging copies of this logic.
    """
    tree = MerkleTree(ids)
    count = len(ids)
    payload = _snapshot_payload(count, tree.root, count)
    snapshot = SignedSnapshot(
        version=count,
        merkle_root=tree.root,
        count=count,
        signature=signing_key.sign_pkcs1(payload),
    )
    return snapshot, tree


class ShardedRevocationList:
    """:class:`~repro.storage.revocation.RevocationList` over shards.

    Versions are the one API wrinkle: each shard numbers its own
    entries, and the global version is the *total entry count* — still
    strictly monotone (every revocation lands on exactly one shard), so
    snapshot freshness comparisons keep working.  Device sync is driven
    by a **per-shard cursor**: a tuple with one shard-local version per
    shard.  Each shard's versions are contiguous and assigned under an
    immediate transaction, so ``version > cursor[i]`` on shard ``i`` is
    *exactly* the set that cursor has not seen — one indexed range scan
    per shard, no full-list merge, and none of the
    freshness-window-overlap redelivery the previous timestamp-ordered
    scheme needed.  The signed snapshot that rides with a delta is
    bounded by the *new* cursor (``version <= cursor'[i]`` per shard),
    so a revocation landing concurrently with the sync can never be
    covered by the signed root yet missing from the delta — the
    integrity property a device's
    :meth:`~repro.storage.revocation.DeviceRevocationView.apply_sync`
    root check depends on.

    A legacy ``int`` watermark (or a cursor whose arity does not match
    the shard count) cannot be mapped onto per-shard versions and
    degrades to a full resync — devices dedup by licence id, so
    redelivery is harmless, just larger.
    """

    def __init__(self, shards: ShardSet):
        self._shards = shards
        self._lists = [RevocationList(db) for db in shards.databases]

    def _list_for(self, license_id: bytes) -> RevocationList:
        return self._lists[self._shards.index_for(license_id)]

    def revoke(self, license_id: bytes, *, at: int, reason: str) -> int:
        """Route to the home shard; returns that shard's new version.

        Callers on the exchange hot path ignore the return value, so
        this deliberately does NOT compute the global version (one
        COUNT per shard) — :meth:`current_version` serves readers that
        want it.
        """
        return self._list_for(license_id).revoke(license_id, at=at, reason=reason)

    def is_revoked(self, license_id: bytes) -> bool:
        return self._list_for(license_id).is_revoked(license_id)

    def revoked_subset(self, license_ids: Iterable[bytes]) -> set[bytes]:
        by_shard: dict[int, list[bytes]] = {}
        for license_id in license_ids:
            by_shard.setdefault(self._shards.index_for(license_id), []).append(
                license_id
            )
        revoked: set[bytes] = set()
        for index, ids in by_shard.items():
            revoked.update(self._lists[index].revoked_subset(ids))
        return revoked

    def current_version(self) -> int:
        return sum(lst.count() for lst in self._lists)

    def count(self) -> int:
        return sum(lst.count() for lst in self._lists)

    def all_ids(self) -> list[bytes]:
        merged: list[bytes] = []
        for lst in self._lists:
            merged.extend(lst.all_ids())
        merged.sort()
        return merged

    def _normalize_cursor(self, cursor) -> tuple[int, ...]:
        """A per-shard cursor tuple, or all-zeros (= full resync).

        Legacy ``int`` watermarks and cursors from a different shard
        topology are not mappable onto per-shard versions; both degrade
        to a full redelivery, which devices absorb by licence-id dedup.
        """
        shard_count = len(self._lists)
        if cursor is None or isinstance(cursor, int):
            return (0,) * shard_count
        cursor = tuple(int(version) for version in cursor)
        if len(cursor) != shard_count:
            return (0,) * shard_count
        return cursor

    def delta_since(self, cursor) -> tuple[list[RevocationEntry], tuple[int, ...]]:
        """Exact delta past ``cursor``: ``(entries, new_cursor)``.

        One indexed range scan per shard (``version > cursor[i]``);
        entry ``version`` fields are shard-local.  The merged delta is
        ordered by ``(revoked_at, license_id)`` so the stream a device
        sees is deterministic regardless of shard interleaving.
        """
        cursor = self._normalize_cursor(cursor)
        entries: list[RevocationEntry] = []
        new_cursor = list(cursor)
        for index, lst in enumerate(self._lists):
            delta = lst.entries_since(cursor[index])
            if delta:
                # entries_since orders by version; the last one is the
                # shard's new high-water mark.
                new_cursor[index] = delta[-1].version
                entries.extend(delta)
        entries.sort(key=lambda entry: (entry.revoked_at, entry.license_id))
        return entries, tuple(new_cursor)

    def sync_since(
        self, cursor, signing_key: RsaPrivateKey
    ) -> tuple[list[RevocationEntry], SignedSnapshot, tuple[int, ...]]:
        """Delta entries, a signed snapshot, and the advanced cursor.

        The snapshot is bounded by the *new* cursor — per shard, only
        entries with ``version <= new_cursor[i]`` are covered — so it
        describes exactly (device's synced set ∪ this delta) even while
        workers keep revoking concurrently: a late entry has a version
        past the cursor and is excluded from the signed root just as it
        is absent from the delta.  A snapshot root covering an entry
        the delta omits is therefore impossible by construction, not by
        scan timing.
        """
        entries, new_cursor = self.delta_since(cursor)
        ids: list[bytes] = []
        for version, lst in zip(new_cursor, self._lists):
            ids.extend(lst.ids_through(version))
        snapshot, _ = _signed_snapshot(sorted(ids), signing_key)
        return entries, snapshot, new_cursor

    def entries_since(self, cursor) -> list[RevocationEntry]:
        """Delta entries past ``cursor`` (see :meth:`delta_since`)."""
        return self.delta_since(cursor)[0]

    # -- snapshot / distribution (same contract as the single store) ----

    def merkle_tree(self) -> MerkleTree:
        return MerkleTree(self.all_ids())

    def snapshot_with_tree(
        self, signing_key: RsaPrivateKey
    ) -> tuple[SignedSnapshot, MerkleTree]:
        """A signed snapshot plus the exact tree it was computed from.

        One merged scan feeds version, count, root *and* the returned
        tree: workers revoke concurrently with gateway reads, and a
        snapshot assembled from two scans could sign a root that does
        not match its own version/count — or worse, hand a caller a
        proof computed against a different tree than the signed root.
        (The global version *is* the entry count, so a single scan
        covers all three fields.)
        """
        return _signed_snapshot(self.all_ids(), signing_key)

    def snapshot(self, signing_key: RsaPrivateKey) -> SignedSnapshot:
        snapshot, _ = self.snapshot_with_tree(signing_key)
        return snapshot

    def bloom_filter(self, fp_rate: float = 0.01):
        from ..storage.bloom import BloomFilter

        return BloomFilter.build(self.all_ids(), fp_rate=fp_rate)


class ShardedLicenseStore:
    """:class:`~repro.storage.licenses.LicenseStore` over shards."""

    def __init__(self, shards: ShardSet):
        self._shards = shards
        self._stores = [LicenseStore(db) for db in shards.databases]

    def _store_for(self, license_id: bytes) -> LicenseStore:
        return self._stores[self._shards.index_for(license_id)]

    def insert(self, license_id: bytes, **fields) -> None:
        self._store_for(license_id).insert(license_id, **fields)

    def get(self, license_id: bytes) -> LicenseRecord | None:
        return self._store_for(license_id).get(license_id)

    def set_status(self, license_id: bytes, status: str) -> None:
        self._store_for(license_id).set_status(license_id, status)

    def transition(
        self, license_id: bytes, *, from_status: str, to_status: str
    ) -> bool:
        return self._store_for(license_id).transition(
            license_id, from_status=from_status, to_status=to_status
        )

    def by_holder(self, holder: bytes) -> list[LicenseRecord]:
        return self._merge(lambda store: store.by_holder(holder))

    def by_content(self, content_id: str) -> list[LicenseRecord]:
        return self._merge(lambda store: store.by_content(content_id))

    def issued_between(self, start: int, end: int) -> list[LicenseRecord]:
        return self._merge(lambda store: store.issued_between(start, end))

    def count(self, *, kind: str | None = None, status: str | None = None) -> int:
        return sum(store.count(kind=kind, status=status) for store in self._stores)

    def distinct_holders(self) -> int:
        holders: set[bytes] = set()
        for database in self._shards.databases:
            rows = database.query_all(
                "SELECT DISTINCT holder FROM licenses WHERE holder IS NOT NULL"
            )
            holders.update(row[0] for row in rows)
        return len(holders)

    def _merge(self, select) -> list[LicenseRecord]:
        merged: list[LicenseRecord] = []
        for store in self._stores:
            merged.extend(select(store))
        merged.sort(key=lambda record: (record.issued_at, record.license_id))
        return merged


class ShardedAuditLog:
    """Hash-chained audit logs, one chain per shard.

    Each writer appends to its *preferred* shard's chain (workers get
    distinct preferred shards, so chains are mostly single-writer and
    never contended), while reads merge every chain into one timeline.
    Tamper evidence is preserved per chain: :meth:`verify_chain` checks
    all of them.
    """

    def __init__(self, shards: ShardSet, *, preferred_shard: int = 0):
        self._shards = shards
        self._logs = [AuditLog(db) for db in shards.databases]
        self._preferred = preferred_shard % len(self._logs)

    def append(self, *, at: int, actor: str, event: str, payload: dict) -> AuditEntry:
        return self._logs[self._preferred].append(
            at=at, actor=actor, event=event, payload=payload
        )

    def entries(self, *, event: str | None = None) -> list[AuditEntry]:
        merged: list[tuple[int, int, int, AuditEntry]] = []
        for shard, log in enumerate(self._logs):
            merged.extend(
                (entry.at, shard, entry.seq, entry)
                for entry in log.entries(event=event)
            )
        merged.sort(key=lambda item: item[:3])
        return [entry for *_, entry in merged]

    def count(self) -> int:
        return sum(log.count() for log in self._logs)

    def verify_chain(self) -> int:
        return sum(log.verify_chain() for log in self._logs)

    def chains(self) -> Iterator[AuditLog]:
        return iter(self._logs)
