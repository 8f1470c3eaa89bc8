"""The sharded ledger, the 2PC deposit sequencer, and the BankSurface.

Unit layers run on in-memory shards; the end-to-end classes spin up a
real worker pool (this file rides the CI service lane).
"""

import pytest

from repro import codec
from repro.clock import SimClock
from repro.core.messages import Coin
from repro.core.protocols.payment import withdraw_coins
from repro.core.system import build_deployment
from repro.errors import DoubleSpendError, PaymentError, ServiceError
from repro.service.gateway import build_gateway
from repro.service.ledger import (
    DepositSequencer,
    ShardedLedger,
    decode_intent_payload,
    intent_payload,
    recover_intents,
)
from repro.service.netserver import NetClient, NetServer
from repro.service.sharding import ShardedSpentTokenStore, ShardSet
from repro.service.workers import ShardedDepositDesk
from repro.storage.ledger import (
    INTENT_ABORTED,
    INTENT_COMMITTED,
    INTENT_PENDING,
)


def coin(serial: bytes, value: int = 1) -> Coin:
    """A structurally valid coin (the sequencer never verifies
    signatures — that is the desk's job before it ever calls in)."""
    return Coin(serial=serial, value=value, signature=7)


@pytest.fixture()
def shards():
    return ShardSet.in_memory(4)


@pytest.fixture()
def ledger(shards):
    return ShardedLedger(shards)


@pytest.fixture()
def spent(shards):
    return ShardedSpentTokenStore(shards, "ecash")


@pytest.fixture()
def sequencer(ledger, spent):
    return DepositSequencer(
        ledger=ledger, spent=spent, clock=SimClock(1_000), wait_budget=0.25
    )


class TestShardedLedger:
    def test_account_routes_to_home_shard(self, shards, ledger):
        ledger.open_account("alice", at=1)
        index = shards.index_for(b"alice")
        assert ledger.stores[index].has_account("alice")
        assert ledger.store_for("alice") is ledger.stores[index]

    def test_balance_unknown_account_refused(self, ledger):
        with pytest.raises(PaymentError, match="no account"):
            ledger.balance("nobody")

    def test_accounts_and_totals_merge_shards(self, ledger):
        for name, amount in (("a1", 5), ("b2", 7), ("c3", 11)):
            ledger.open_account(name, at=1, initial_balance=amount)
        assert ledger.accounts() == ["a1", "b2", "c3"]
        assert ledger.total_balance() == 23

    def test_intent_payload_round_trip(self):
        pairs = [(b"t1", 5), (b"t2", 20)]
        assert decode_intent_payload(intent_payload(pairs)) == pairs


class TestDepositSequencer:
    def test_multi_coin_deposit_is_atomic_and_attributable(
        self, sequencer, ledger, spent
    ):
        coins = [coin(b"s1", 5), coin(b"s2", 20), coin(b"s3", 1)]
        assert sequencer.deposit("merchant", coins) == 26
        assert ledger.balance("merchant") == 26
        assert ledger.intent_counts()[INTENT_COMMITTED] == 1
        # Every spend names the committed intent.
        [record] = ledger.intents(INTENT_COMMITTED)
        for c in coins:
            fields = codec.decode(spent.record_for(c.spent_token()).transcript)
            assert fields["intent"] == record.intent_id
            assert fields["depositor"] == "merchant"

    def test_empty_deposit_is_zero(self, sequencer, ledger):
        assert sequencer.deposit("merchant", []) == 0
        assert ledger.balance("merchant") == 0

    def test_replay_is_double_spend_and_costs_nothing(self, sequencer, ledger):
        coins = [coin(b"s1", 5), coin(b"s2", 20)]
        sequencer.deposit("merchant", coins)
        with pytest.raises(DoubleSpendError):
            sequencer.deposit("merchant", coins)
        assert ledger.balance("merchant") == 25
        counts = ledger.intent_counts()
        assert counts[INTENT_COMMITTED] == 1
        assert counts[INTENT_ABORTED] == 1  # the replay's own intent
        assert counts[INTENT_PENDING] == 0

    def test_partial_overlap_releases_fresh_spends(
        self, sequencer, ledger, spent
    ):
        sequencer.deposit("merchant", [coin(b"s1", 5)])
        fresh = coin(b"s9", 20)
        with pytest.raises(DoubleSpendError):
            sequencer.deposit("merchant", [fresh, coin(b"s1", 5)])
        # The refused payment's fresh coin is respendable immediately.
        assert not spent.is_spent(fresh.spent_token())
        assert sequencer.deposit("merchant", [fresh]) == 20
        assert ledger.balance("merchant") == 25

    def test_intra_batch_duplicate_refused_before_any_state(
        self, sequencer, ledger, spent
    ):
        with pytest.raises(DoubleSpendError):
            sequencer.deposit("merchant", [coin(b"dup", 5), coin(b"dup", 5)])
        assert ledger.intent_counts() == {
            INTENT_PENDING: 0,
            INTENT_COMMITTED: 0,
            INTENT_ABORTED: 0,
        }
        assert not spent.is_spent(coin(b"dup", 5).spent_token())

    def test_coin_under_foreign_aborted_intent_self_heals(
        self, sequencer, ledger, spent
    ):
        # Stage the documented leak: an aborted payment whose coin
        # release failed mid-compensation.
        c = coin(b"s1", 5)
        ledger.ensure_account("other", at=1)
        foreign = b"F" * 16
        ledger.store_for("other").create_intent(
            foreign, "other", 5, at=1,
            payload=intent_payload([(c.spent_token(), 5)]),
        )
        spent.try_spend(
            c.spent_token(),
            at=1,
            transcript=codec.encode(
                {"depositor": "other", "at": 1, "value": 5, "intent": foreign}
            ),
        )
        ledger.store_for("other").abort_intent(foreign, at=2)
        # An honest payment finds the stale spend, releases it on the
        # aborted owner's behalf, and succeeds.
        assert sequencer.deposit("merchant", [c]) == 5
        assert ledger.balance("merchant") == 5

    def test_coin_under_foreign_pending_intent_waits_it_out(
        self, ledger, spent
    ):
        c = coin(b"s1", 5)
        ledger.ensure_account("other", at=1)
        foreign = b"F" * 16
        ledger.store_for("other").create_intent(
            foreign, "other", 5, at=1,
            payload=intent_payload([(c.spent_token(), 5)]),
        )
        spent.try_spend(
            c.spent_token(),
            at=1,
            transcript=codec.encode(
                {"depositor": "other", "at": 1, "value": 5, "intent": foreign}
            ),
        )
        # The owner resolves while the waiter polls: after two polls
        # it aborts and releases, and the waiter inherits the coin.
        # (Resolution happens inline from this thread — in-memory
        # SQLite handles are thread-pinned — which exercises exactly
        # the same wait-loop path a concurrent owner would.)
        polls = {"n": 0}

        class ResolvingSpent:
            def __getattr__(self, name):
                return getattr(spent, name)

            def try_spend(self, token, *, at, transcript=b""):
                polls["n"] += 1
                if polls["n"] == 3:
                    token = c.spent_token()
                    spent.unspend_if(token, spent.record_for(token).transcript)
                    ledger.store_for("other").abort_intent(foreign, at=2)
                return spent.try_spend(token, at=at, transcript=transcript)

        sequencer = DepositSequencer(
            ledger=ledger,
            spent=ResolvingSpent(),
            clock=SimClock(1_000),
            wait_budget=2.0,
        )
        assert sequencer.deposit("merchant", [c]) == 5
        assert polls["n"] >= 3  # it actually waited through the race
        assert ledger.balance("merchant") == 5

    def test_owner_stuck_past_budget_is_retryable_not_misuse(
        self, sequencer, ledger, spent
    ):
        c = coin(b"s1", 5)
        ledger.ensure_account("other", at=1)
        foreign = b"F" * 16
        ledger.store_for("other").create_intent(
            foreign, "other", 5, at=1,
            payload=intent_payload([(c.spent_token(), 5)]),
        )
        spent.try_spend(
            c.spent_token(),
            at=1,
            transcript=codec.encode(
                {"depositor": "other", "at": 1, "value": 5, "intent": foreign}
            ),
        )
        # 0.25s budget, never resolves: an honest payer racing a stuck
        # peer gets infrastructure trouble, NOT a misuse verdict.
        with pytest.raises(ServiceError, match="did not resolve") as excinfo:
            sequencer.deposit("merchant", [c])
        assert not isinstance(excinfo.value, DoubleSpendError)
        # The refused payment left nothing pending of its own.
        assert ledger.intent_counts()[INTENT_PENDING] == 1  # the stuck owner
        # Once recovery aborts the stuck owner, the retry goes through.
        recover_intents(ledger, spent, at=2)
        assert sequencer.deposit("merchant", [c]) == 5

    def test_commit_denied_refuses_instead_of_phantom_credit(
        self, ledger, spent
    ):
        """An operator repair (or a recovery run breaking the pool-
        stopped contract) aborts the intent between spend and commit:
        the deposit must surface a retryable failure, never report the
        amount as credited."""
        intent_id = b"A" * 16

        class AbortingSpent:
            def __getattr__(self, name):
                return getattr(spent, name)

            def try_spend(self, token, *, at, transcript=b""):
                result = spent.try_spend(token, at=at, transcript=transcript)
                ledger.store_for("merchant").abort_intent(intent_id, at=at)
                return result

        sequencer = DepositSequencer(
            ledger=ledger,
            spent=AbortingSpent(),
            clock=SimClock(1_000),
            intent_ids=lambda: intent_id,
        )
        c = coin(b"s1", 5)
        with pytest.raises(ServiceError, match="before its commit point"):
            sequencer.deposit("merchant", [c])
        assert ledger.balance("merchant") == 0
        # The payment's own spends were released on the way out.
        assert not spent.is_spent(c.spent_token())

    def test_self_heal_release_is_cas_on_observed_record(self, ledger, spent):
        """Two payments both observe a spend owned by an aborted intent;
        the slower one's release must not delete the faster one's fresh
        (already committed) re-spend."""
        c = coin(b"s1", 5)
        stale_transcript = codec.encode(
            {"depositor": "other", "at": 1, "value": 5, "intent": b"F" * 16}
        )
        ledger.ensure_account("other", at=1)
        ledger.store_for("other").create_intent(
            b"F" * 16, "other", 5, at=1,
            payload=intent_payload([(c.spent_token(), 5)]),
        )
        spent.try_spend(c.spent_token(), at=1, transcript=stale_transcript)
        ledger.store_for("other").abort_intent(b"F" * 16, at=2)
        # The fast payment self-heals and commits.
        fast = DepositSequencer(ledger=ledger, spent=spent, clock=SimClock(1_000))
        assert fast.deposit("merchant", [c]) == 5
        # The slow payment acts on its STALE read of the spend record:
        # the conditional release must refuse (record changed), leaving
        # the winner's spend — and its credit — intact.
        assert spent.unspend_if(c.spent_token(), stale_transcript) is False
        assert spent.is_spent(c.spent_token())
        assert ledger.balance("merchant") == 5

    def test_committed_owner_is_truthful_double_spend(
        self, sequencer, ledger
    ):
        c = coin(b"s1", 5)
        sequencer.deposit("first", [c])
        with pytest.raises(DoubleSpendError):
            sequencer.deposit("second", [c])
        assert ledger.balance("first") == 5
        # The loser's account was ensured but never credited.
        assert ledger.balance("second") == 0

    def test_deterministic_intent_ids_injectable(self, ledger, spent):
        ids = iter([b"A" * 16, b"B" * 16])
        sequencer = DepositSequencer(
            ledger=ledger,
            spent=spent,
            clock=SimClock(1_000),
            intent_ids=lambda: next(ids),
        )
        sequencer.deposit("merchant", [coin(b"s1", 5)])
        assert ledger.find_intent(b"A" * 16) is not None


class TestRecovery:
    def test_pending_intent_released_and_aborted(self, ledger, spent):
        """The crash window: spends landed, commit never did."""
        c1, c2 = coin(b"s1", 5), coin(b"s2", 20)
        ledger.ensure_account("merchant", at=1)
        crashed = b"C" * 16
        pairs = [(c.spent_token(), c.value) for c in (c1, c2)]
        ledger.store_for("merchant").create_intent(
            crashed, "merchant", 25, at=1, payload=intent_payload(pairs)
        )
        for c in (c1, c2):
            spent.try_spend(
                c.spent_token(),
                at=1,
                transcript=codec.encode(
                    {"depositor": "merchant", "at": 1, "value": c.value,
                     "intent": crashed}
                ),
            )
        summary = recover_intents(ledger, spent, at=2)
        assert summary == {"aborted": 1, "released": 2}
        assert ledger.balance("merchant") == 0  # never credited
        assert ledger.intent_counts()[INTENT_PENDING] == 0
        # The payer's retry goes through cleanly.
        sequencer = DepositSequencer(
            ledger=ledger, spent=spent, clock=SimClock(1_000)
        )
        assert sequencer.deposit("merchant", [c1, c2]) == 25

    def test_recovery_leaves_foreign_spends_alone(self, ledger, spent):
        c = coin(b"s1", 5)
        # The coin is genuinely owned by a committed deposit...
        sequencer = DepositSequencer(
            ledger=ledger, spent=spent, clock=SimClock(1_000)
        )
        sequencer.deposit("winner", [c])
        # ...but a crashed intent also CLAIMS it in its payload (it
        # never got to spend it).  Recovery must not release the
        # winner's spend.
        ledger.ensure_account("crashed", at=1)
        pending = b"C" * 16
        ledger.store_for("crashed").create_intent(
            pending, "crashed", 5, at=1,
            payload=intent_payload([(c.spent_token(), 5)]),
        )
        summary = recover_intents(ledger, spent, at=2)
        assert summary == {"aborted": 1, "released": 0}
        assert spent.is_spent(c.spent_token())
        assert ledger.balance("winner") == 5


class TestDeskSurface:
    def test_balance_is_the_only_read(self, shards, ledger, spent):
        desk = ShardedDepositDesk(
            public_keys={}, spent=spent, ledger=ledger, clock=SimClock(1_000)
        )
        desk.open_account("merchant", initial_balance=40)
        assert desk.balance("merchant") == 40
        # The deprecated credited() alias is gone; unknown accounts are
        # a typed refusal, not the old accumulator's silent 0.
        assert not hasattr(desk, "credited")
        with pytest.raises(PaymentError, match="no account"):
            desk.balance("nobody")


# -- end to end over a real pool ---------------------------------------------


def _deployment(seed="ledger-e2e"):
    d = build_deployment(seed=seed, rsa_bits=512)
    d.provider.publish("song-1", b"SONG-ONE" * 32, title="Song One", price=3)
    return d


@pytest.fixture(scope="module")
def bank_gateway(tmp_path_factory):
    d = _deployment()
    directory = tmp_path_factory.mktemp("ledger-shards")
    gateway = build_gateway(d, str(directory), workers=2, shards=4)
    yield d, gateway
    gateway.close()


class TestBankSurfaceEndToEnd:
    def test_withdraw_deposit_balance_statement_in_process(self, bank_gateway):
        d, gateway = bank_gateway
        user = d.add_user("bank-user", balance=1_000)
        gateway.open_account(user.bank_account, initial_balance=500)
        coins = withdraw_coins(user, gateway, 26)
        assert sum(c.value for c in coins) == 26
        for c in coins:
            gateway.verify_coin(c)  # raises InvalidSignature on mismatch
        assert gateway.balance(user.bank_account) == 474
        before = gateway.balance(gateway.bank_account)
        receipt = gateway.deposit(gateway.bank_account, coins)
        assert receipt == {"account": gateway.bank_account, "credited": 26}
        assert gateway.balance(gateway.bank_account) == before + 26
        entries = gateway.statement(user.bank_account)
        assert [e.kind for e in entries[:1]] == ["open"]
        assert sum(e.amount for e in entries) == 474

    def test_key_surface_matches_in_process_bank(self, bank_gateway):
        d, gateway = bank_gateway
        assert gateway.denominations == sorted(
            d.bank.public_keys(), reverse=True
        )
        for denom in gateway.denominations:
            ours = gateway.public_key(denom)
            theirs = d.bank.public_key(denom)
            assert (ours.n, ours.e) == (theirs.n, theirs.e)
        assert gateway.decompose(26) == d.bank.decompose(26)
        with pytest.raises(PaymentError):
            gateway.public_key(999)

    def test_bank_surface_over_tcp_matches_queue(self, bank_gateway):
        d, gateway = bank_gateway
        user = d.add_user("tcp-bank-user", balance=1_000)
        gateway.open_account(user.bank_account, initial_balance=300)
        with NetServer(gateway, allow_withdraw=True) as server:
            with NetClient(server.address) as client:
                assert client.bank_account == gateway.bank_account
                assert client.denominations == gateway.denominations
                for denom in client.denominations:
                    ours = client.public_key(denom)
                    theirs = gateway.public_key(denom)
                    assert (ours.n, ours.e) == (theirs.n, theirs.e)
                coins = withdraw_coins(user, client, 26)
                for c in coins:
                    client.verify_coin(c)
                assert client.balance(user.bank_account) == 274
                assert client.balance(user.bank_account) == gateway.balance(
                    user.bank_account
                )
                receipt = client.deposit(client.bank_account, coins)
                assert receipt["credited"] == 26
                queue_side = gateway.statement(user.bank_account)
                tcp_side = client.statement(user.bank_account)
                assert tcp_side == queue_side
                assert client.statement(user.bank_account, limit=2) == (
                    gateway.statement(user.bank_account, limit=2)
                )
                with pytest.raises(PaymentError, match="no account"):
                    client.balance("nobody")

    def test_tcp_surface_is_deposit_only_by_default(self, bank_gateway):
        """Without the explicit opt-in, a network client must not be
        able to debit a named account — the mint stays off the open
        socket (the queue/in-process surface is unaffected)."""
        d, gateway = bank_gateway
        user = d.add_user("deposit-only-user", balance=1_000)
        gateway.open_account(user.bank_account, initial_balance=100)
        with NetServer(gateway) as server:
            with NetClient(server.address) as client:
                with pytest.raises(ServiceError, match="deposit-only"):
                    withdraw_coins(user, client, 26)
                # Nothing was debited: the request never reached a desk.
                assert gateway.balance(user.bank_account) == 100
                # Deposits and the read surface still work as before.
                assert client.balance(user.bank_account) == 100

    def test_ledger_metrics_refresh(self, bank_gateway):
        d, gateway = bank_gateway
        counts = gateway.refresh_ledger_metrics()
        gauge = gateway.metrics.get("p2drm_ledger_intents")
        for state in ("pending", "committed", "aborted"):
            assert gauge.value(state=state) == counts.get(state, 0)
        counter = gateway.metrics.get("p2drm_ledger_2pc_total")
        assert counter.value(phase="prepare") == sum(counts.values())


class TestCrashWindow:
    def test_gateway_restart_recovers_partial_deposit(self, tmp_path):
        """Kill-between-spend-and-credit, staged durably: spends and a
        pending intent are on the shard files, the credit is not.  A
        fresh gateway over the same directory must reconcile — zero
        lost coins, zero double credits — and the retry must succeed.
        """
        d = _deployment(seed="crash-window")
        directory = str(tmp_path / "shards")
        gateway = build_gateway(d, directory, workers=2, shards=4)
        user = d.add_user("crash-user", balance=1_000)
        coins = withdraw_coins(user, d.bank, 26)
        account = gateway.bank_account
        before = gateway.balance(account)
        gateway.close()

        # Stage the mid-deposit crash state directly on the shard files.
        shards = ShardSet(ShardSet.paths_in_directory(directory, 4))
        try:
            ledger = ShardedLedger(shards)
            spent = ShardedSpentTokenStore(shards, "ecash")
            crashed = b"K" * 16
            pairs = sorted(
                ((c.spent_token(), c.value) for c in coins),
                key=lambda pair: pair[0],
            )
            ledger.store_for(account).create_intent(
                crashed, account, 26, at=5_000, payload=intent_payload(pairs)
            )
            for token, value in pairs[:2]:  # crash after two of the spends
                spent.try_spend(
                    token,
                    at=5_000,
                    transcript=codec.encode(
                        {"depositor": account, "at": 5_000, "value": value,
                         "intent": crashed}
                    ),
                )
        finally:
            shards.close()

        # Restart: recovery runs before any worker starts.
        reopened = build_gateway(d, directory, workers=2, shards=4)
        try:
            assert reopened.recovery_summary == {"aborted": 1, "released": 2}
            assert reopened.balance(account) == before  # nothing credited
            receipt = reopened.deposit(account, coins)  # the client retry
            assert receipt["credited"] == 26
            assert reopened.balance(account) == before + 26
            counts = reopened.refresh_ledger_metrics()
            assert counts["pending"] == 0
        finally:
            reopened.close()
