"""The sharded store views: same APIs, same invariants, N files."""

import pytest

from repro.crypto.rand import DeterministicRandomSource
from repro.crypto.rsa import generate_rsa_key
from repro.errors import ParameterError
from repro.service.sharding import (
    ShardSet,
    ShardedAuditLog,
    ShardedLicenseStore,
    ShardedRevocationList,
    ShardedSpentTokenStore,
    shard_index,
)
from repro.storage import licenses as license_store
from repro.storage.merkle import verify_non_inclusion


def _tokens(count, *, prefix=b"tok"):
    return [prefix + i.to_bytes(4, "big") for i in range(count)]


class TestShardIndex:
    def test_stable_and_in_range(self):
        for token in _tokens(50):
            index = shard_index(token, 8)
            assert 0 <= index < 8
            assert shard_index(token, 8) == index  # deterministic

    def test_spreads_tokens(self):
        hit = {shard_index(token, 8) for token in _tokens(200)}
        assert len(hit) == 8  # 200 hashed tokens cover all 8 shards

    def test_rejects_zero_shards(self):
        with pytest.raises(ParameterError):
            shard_index(b"x", 0)


class TestShardSet:
    def test_in_memory_routing(self):
        with ShardSet.in_memory(4) as shards:
            assert len(shards) == 4
            token = b"some-token"
            assert shards.database_for(token) is shards.databases[
                shards.index_for(token)
            ]

    def test_file_backed_shares_state_between_open_sets(self, tmp_path):
        first = ShardSet.in_directory(str(tmp_path), 3)
        store = ShardedSpentTokenStore(first, "anon-license")
        assert store.try_spend(b"shared-token", at=5, transcript=b"t") is None
        # A second ShardSet over the same directory (another process,
        # morally) sees the committed spend.
        second = ShardSet(first.paths)
        view = ShardedSpentTokenStore(second, "anon-license")
        assert view.is_spent(b"shared-token")
        record = view.record_for(b"shared-token")
        assert record.transcript == b"t"
        first.close()
        second.close()

    def test_close_is_idempotent(self, tmp_path):
        shards = ShardSet.in_directory(str(tmp_path), 2)
        shards.close()
        shards.close()
        assert all(db.closed for db in shards.databases)


class TestShardedSpentTokenStore:
    def test_exactly_once_across_shards(self):
        with ShardSet.in_memory(4) as shards:
            store = ShardedSpentTokenStore(shards, "anon-license")
            tokens = _tokens(40)
            for token in tokens:
                assert store.try_spend(token, at=1, transcript=b"first") is None
            assert store.count() == 40
            for token in tokens:
                previous = store.try_spend(token, at=2, transcript=b"second")
                assert previous is not None
                assert previous.transcript == b"first"
            assert store.count() == 40

    def test_spent_between_merges_shards(self):
        with ShardSet.in_memory(3) as shards:
            store = ShardedSpentTokenStore(shards, "ecash")
            for at, token in enumerate(_tokens(12)):
                store.try_spend(token, at=at)
            window = store.spent_between(3, 9)
            assert [record.spent_at for record in window] == sorted(
                record.spent_at for record in window
            )
            assert len(window) == 6

    def test_unspend_releases_exactly_that_token(self):
        with ShardSet.in_memory(4) as shards:
            store = ShardedSpentTokenStore(shards, "ecash")
            a, b = b"coin-a", b"coin-b"
            store.try_spend(a, at=1, transcript=b"owner-a")
            store.try_spend(b, at=1, transcript=b"owner-b")
            transcript = store.record_for(a).transcript
            assert store.unspend_if(a, transcript) is True
            assert not store.is_spent(a)
            assert store.is_spent(b)
            assert store.unspend_if(a, transcript) is False  # already released

    def test_unspend_if_is_cas_on_the_observed_transcript(self):
        with ShardSet.in_memory(4) as shards:
            store = ShardedSpentTokenStore(shards, "ecash")
            token = b"coin-a"
            store.try_spend(token, at=1, transcript=b"stale-owner")
            # Releaser A observed the stale record and wins the CAS.
            assert store.unspend_if(token, b"stale-owner") is True
            # The coin is immediately respent by a fresh payment.
            assert store.try_spend(token, at=2, transcript=b"fresh") is None
            # Releaser B acted on the SAME stale read: its delete must
            # not touch the fresh record.
            assert store.unspend_if(token, b"stale-owner") is False
            record = store.record_for(token)
            assert record is not None and record.transcript == b"fresh"


class TestShardedRevocationList:
    def test_revocation_routing_and_subset(self):
        with ShardSet.in_memory(4) as shards:
            lrl = ShardedRevocationList(shards)
            ids = _tokens(20, prefix=b"lic")
            for at, license_id in enumerate(ids):
                lrl.revoke(license_id, at=at, reason="test")
            assert lrl.count() == 20
            assert all(lrl.is_revoked(license_id) for license_id in ids)
            other = _tokens(5, prefix=b"unrevoked")
            subset = lrl.revoked_subset(ids[:7] + other)
            assert subset == set(ids[:7])

    def test_version_is_monotone_and_idempotent(self):
        with ShardSet.in_memory(3) as shards:
            lrl = ShardedRevocationList(shards)
            ids = _tokens(10, prefix=b"v")
            observed = []
            for license_id in ids:
                lrl.revoke(license_id, at=1, reason="r")
                observed.append(lrl.current_version())
            # The global version is the total count: +1 per revocation.
            assert observed == list(range(1, 11))
            # Re-revocation bumps nothing.
            lrl.revoke(ids[0], at=2, reason="r")
            assert lrl.current_version() == 10

    def test_cursor_delta_and_signed_snapshot(self):
        key = generate_rsa_key(512, rng=DeterministicRandomSource(b"lrl-shard"))
        with ShardSet.in_memory(4) as shards:
            lrl = ShardedRevocationList(shards)
            ids = _tokens(12, prefix=b"snap")
            for position, license_id in enumerate(ids):
                lrl.revoke(license_id, at=position * 200_000, reason="r")
            entries, snapshot, cursor = lrl.sync_since(0, key)
            assert {entry.license_id for entry in entries} == set(ids)
            # Merged delta order is deterministic: (revoked_at, id).
            assert [entry.license_id for entry in entries] == [
                entry.license_id
                for entry in sorted(
                    entries, key=lambda e: (e.revoked_at, e.license_id)
                )
            ]
            # Per-shard versions total the global count.
            assert len(cursor) == 4 and sum(cursor) == 12
            snapshot.verify(key.public_key)
            assert snapshot.count == 12
            assert snapshot.merkle_root == lrl.merkle_tree().root
            # Non-inclusion proofs work against the merged tree.
            outsider = b"not-revoked-....."[:16]
            proof = lrl.merkle_tree().prove_non_inclusion(outsider)
            assert verify_non_inclusion(
                snapshot.merkle_root, snapshot.count, outsider, proof
            )
            # Deltas are exact: re-syncing from the cursor is empty...
            delta, cursor2 = lrl.delta_since(cursor)
            assert delta == [] and cursor2 == cursor
            # ...and after three more revocations, exactly those three
            # — no watermark redelivery.
            more = _tokens(3, prefix=b"more")
            for license_id in more:
                lrl.revoke(license_id, at=5_000_000, reason="r")
            delta, cursor3 = lrl.delta_since(cursor)
            assert {entry.license_id for entry in delta} == set(more)
            assert len(delta) == 3
            assert sum(cursor3) == 15
            # A legacy int watermark cannot be mapped onto per-shard
            # versions: it degrades to a full resync.
            assert len(lrl.entries_since(8)) == 15

    def test_cursor_sync_survives_straggler_reordering(self):
        """A newcomer that sorts *before* already-synced positions
        (same timestamp, smaller id, different shard) must still reach
        a device that syncs deltas — per-shard version cursors make the
        delta exact, so merge order never decides delivery."""
        from repro.storage.revocation import DeviceRevocationView

        key = generate_rsa_key(512, rng=DeterministicRandomSource(b"straggler"))
        with ShardSet.in_memory(4) as shards:
            lrl = ShardedRevocationList(shards)
            lrl.revoke(b"\xffzzzz-late-sorting", at=100, reason="r")
            device = DeviceRevocationView(key.public_key)
            entries, snapshot, cursor = lrl.sync_since(device.cursor, key)
            device.apply_sync(entries, snapshot, cursor)
            assert device.version == 1
            # Same timestamp, lexicographically smaller id: would merge
            # *before* what the device already synced in the old
            # timestamp-ordered scheme.
            lrl.revoke(b"\x00aaaa-early-sorting", at=100, reason="r")
            entries, snapshot, cursor = lrl.sync_since(device.cursor, key)
            # Exactly the newcomer — nothing redelivered.
            assert [entry.license_id for entry in entries] == [
                b"\x00aaaa-early-sorting"
            ]
            device.apply_sync(entries, snapshot, cursor)
            assert device.check(b"\x00aaaa-early-sorting")
            assert device.check(b"\xffzzzz-late-sorting")

    def test_cursor_sync_survives_full_freshness_skew(self):
        """Worst-case stamp skew: the synced watermark is stamped a
        freshness window in the FUTURE, the newcomer a window in the
        PAST (both legal request stamps).  Version cursors do not
        consult timestamps at all, so the newcomer arrives exactly
        once."""
        from repro.core.actors.provider import REQUEST_FRESHNESS_WINDOW
        from repro.storage.revocation import DeviceRevocationView

        key = generate_rsa_key(512, rng=DeterministicRandomSource(b"skew"))
        now = 10 * REQUEST_FRESHNESS_WINDOW
        with ShardSet.in_memory(4) as shards:
            lrl = ShardedRevocationList(shards)
            lrl.revoke(b"\xff-future-stamped", at=now + REQUEST_FRESHNESS_WINDOW,
                       reason="r")
            device = DeviceRevocationView(key.public_key)
            entries, snapshot, cursor = lrl.sync_since(device.cursor, key)
            device.apply_sync(entries, snapshot, cursor)
            lrl.revoke(b"\x00-past-stamped", at=now - REQUEST_FRESHNESS_WINDOW + 10,
                       reason="r")
            entries, snapshot, cursor = lrl.sync_since(device.cursor, key)
            assert len(entries) == 1
            device.apply_sync(entries, snapshot, cursor)
            assert device.check(b"\x00-past-stamped")
            assert device.check(b"\xff-future-stamped")

    def test_bloom_filter_covers_merged_ids(self):
        with ShardSet.in_memory(2) as shards:
            lrl = ShardedRevocationList(shards)
            ids = _tokens(30, prefix=b"bloom")
            for license_id in ids:
                lrl.revoke(license_id, at=1, reason="r")
            bloom = lrl.bloom_filter()
            assert all(license_id in bloom for license_id in ids)


class TestShardedLicenseStore:
    def _insert(self, store, license_id, holder=b"holder-1", kind=None):
        store.insert(
            license_id,
            kind=kind or license_store.KIND_PERSONAL,
            content_id="song-1",
            holder=holder,
            rights_text="play",
            issued_at=7,
            blob=b"blob",
        )

    def test_insert_get_status_across_shards(self):
        with ShardSet.in_memory(4) as shards:
            store = ShardedLicenseStore(shards)
            ids = _tokens(15, prefix=b"reg")
            for license_id in ids:
                self._insert(store, license_id)
            assert store.count() == 15
            record = store.get(ids[3])
            assert record.content_id == "song-1"
            store.set_status(ids[3], license_store.STATUS_REVOKED)
            assert store.get(ids[3]).status == license_store.STATUS_REVOKED
            assert store.count(status=license_store.STATUS_ACTIVE) == 14

    def test_holder_views_merge(self):
        with ShardSet.in_memory(3) as shards:
            store = ShardedLicenseStore(shards)
            for index, license_id in enumerate(_tokens(12, prefix=b"hold")):
                self._insert(store, license_id, holder=b"h-%d" % (index % 3))
            assert store.distinct_holders() == 3
            assert len(store.by_holder(b"h-0")) == 4
            assert len(store.by_content("song-1")) == 12


class TestShardedAuditLog:
    def test_preferred_shard_chains_and_merged_reads(self):
        with ShardSet.in_memory(3) as shards:
            worker_logs = [
                ShardedAuditLog(shards, preferred_shard=i) for i in range(3)
            ]
            at = 0
            for round_ in range(4):
                for index, log in enumerate(worker_logs):
                    log.append(
                        at=at,
                        actor=f"worker-{index}",
                        event="license_issued",
                        payload={"round": round_},
                    )
                    at += 1
            view = ShardedAuditLog(shards)
            assert view.count() == 12
            assert view.verify_chain() == 12
            entries = view.entries()
            assert [entry.at for entry in entries] == list(range(12))
            assert len(view.entries(event="license_issued")) == 12
