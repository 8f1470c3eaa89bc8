"""Spent-token store: the exactly-once gate for bearer instruments.

Two bearer objects circulate in P2DRM — anonymous licences and e-cash
coins.  Both are trivially copyable bytes, so the *only* thing standing
between the system and double redemption is this store: a token
identifier may transition to "spent" exactly once, atomically, and the
original transcript is retained as evidence for the anonymity
revocation protocol.

``kind`` namespaces the table so one database can serve several token
families (coins per denomination, anonymous licence ids) without
cross-talk.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Database

_MIGRATION = [
    """
    CREATE TABLE spent_tokens (
        kind      TEXT    NOT NULL,
        token_id  BLOB    NOT NULL,
        spent_at  INTEGER NOT NULL,
        transcript BLOB   NOT NULL,
        PRIMARY KEY (kind, token_id)
    )
    """,
    "CREATE INDEX idx_spent_tokens_at ON spent_tokens(kind, spent_at)",
]


@dataclass(frozen=True)
class SpentRecord:
    """What the store remembers about a spend event."""

    kind: str
    token_id: bytes
    spent_at: int
    transcript: bytes


class SpentTokenStore:
    """Exactly-once marking of token identifiers."""

    def __init__(self, db: Database, kind: str):
        if not kind:
            raise ValueError("kind must be non-empty")
        self._db = db
        self._kind = kind
        db.migrate("spent_tokens_v1", _MIGRATION)

    @property
    def kind(self) -> str:
        return self._kind

    def try_spend(
        self, token_id: bytes, *, at: int, transcript: bytes = b""
    ) -> SpentRecord | None:
        """Atomically mark ``token_id`` spent.

        Returns ``None`` on success (first spend).  If the token was
        already spent, returns the **original** :class:`SpentRecord` —
        the caller pairs it with the new attempt as double-spend
        evidence.

        The transaction is immediate: when several worker processes
        share one shard file, racing spends of the same token serialize
        at BEGIN, so exactly one caller ever sees ``None``.
        """
        with self._db.transaction(immediate=True):
            row = self._db.query_one(
                "SELECT spent_at, transcript FROM spent_tokens"
                " WHERE kind = ? AND token_id = ?",
                (self._kind, token_id),
            )
            if row is not None:
                return SpentRecord(
                    kind=self._kind,
                    token_id=token_id,
                    spent_at=row[0],
                    transcript=row[1],
                )
            self._db.execute(
                "INSERT INTO spent_tokens(kind, token_id, spent_at, transcript)"
                " VALUES (?, ?, ?, ?)",
                (self._kind, token_id, at, transcript),
            )
            return None

    def is_spent(self, token_id: bytes) -> bool:
        """Read-only check (no state change)."""
        row = self._db.query_one(
            "SELECT 1 FROM spent_tokens WHERE kind = ? AND token_id = ?",
            (self._kind, token_id),
        )
        return row is not None

    def record_for(self, token_id: bytes) -> SpentRecord | None:
        """The spend record for ``token_id`` if any."""
        row = self._db.query_one(
            "SELECT spent_at, transcript FROM spent_tokens"
            " WHERE kind = ? AND token_id = ?",
            (self._kind, token_id),
        )
        if row is None:
            return None
        return SpentRecord(
            kind=self._kind, token_id=token_id, spent_at=row[0], transcript=row[1]
        )

    def count(self) -> int:
        """Number of spent tokens of this kind."""
        return self._db.query_value(
            "SELECT COUNT(*) FROM spent_tokens WHERE kind = ?",
            (self._kind,),
            default=0,
        )

    def spent_between(self, start: int, end: int) -> list[SpentRecord]:
        """Spend events with ``start <= spent_at < end`` (traffic analysis
        experiments read the store the way a curious operator would)."""
        rows = self._db.query_all(
            "SELECT token_id, spent_at, transcript FROM spent_tokens"
            " WHERE kind = ? AND spent_at >= ? AND spent_at < ?"
            " ORDER BY spent_at",
            (self._kind, start, end),
        )
        return [
            SpentRecord(kind=self._kind, token_id=r[0], spent_at=r[1], transcript=r[2])
            for r in rows
        ]

    def prune_oldest(self, max_records: int) -> int:
        """Delete the oldest records past ``max_records`` of this kind.

        This is for *cache*-flavoured kinds only (the idempotent-replay
        response cache bounds itself with it); the bearer-token kinds
        (``ecash``, ``anon-license``) must never be pruned — dropping a
        spend row would re-open double spending.  Eviction order is
        ``spent_at`` (the indexed column), oldest first; ties break on
        token id so the sweep is deterministic.  Returns how many rows
        were deleted.
        """
        if max_records < 0:
            raise ValueError("max_records must be >= 0")
        with self._db.transaction(immediate=True):
            surplus = self.count() - max_records
            if surplus <= 0:
                return 0
            cursor = self._db.execute(
                "DELETE FROM spent_tokens WHERE kind = ? AND token_id IN ("
                " SELECT token_id FROM spent_tokens WHERE kind = ?"
                " ORDER BY spent_at ASC, token_id ASC LIMIT ?)",
                (self._kind, self._kind, surplus),
            )
            return cursor.rowcount

    def unspend_if(self, token_id: bytes, transcript: bytes) -> bool:
        """Release a spend only if it still carries ``transcript``.

        The compare-and-delete shares one immediate transaction, so two
        processes that both read the same stale record (a spend owned by
        an aborted intent, say) cannot both release it: the first delete
        wins, the second sees the winner's *fresh* transcript and leaves
        it alone.  Returns whether a record was removed.
        """
        with self._db.transaction(immediate=True):
            cursor = self._db.execute(
                "DELETE FROM spent_tokens"
                " WHERE kind = ? AND token_id = ? AND transcript = ?",
                (self._kind, token_id, transcript),
            )
            return cursor.rowcount > 0
