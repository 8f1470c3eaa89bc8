"""End-to-end distributed tracing: the allowlist, tail-based keep,
span propagation through the queue and TCP transports, 2PC phase
spans, worker-death traces, and the privacy audit over a full sim run.

The privacy tests are the acceptance surface: every span a full
marketplace run emits is re-validated against the attribute allowlist
and checked against every identifier the client side observed.
"""

import json
import os
import signal
import time
import urllib.request

import pytest

from repro import codec
from repro.core.messages import DepositRequest
from repro.core.protocols.payment import withdraw_coins
from repro.core.system import build_deployment
from repro.errors import CodecError, ParameterError, ServiceError
from repro.service import tracing, wire
from repro.service.gateway import build_gateway
from repro.service.ledger import ShardedLedger, intent_payload
from repro.service.netserver import NetClient, NetServer
from repro.service.sharding import ShardedSpentTokenStore, ShardSet
from repro.sim.marketplace import MarketplaceSimulator
from repro.sim.workload import WorkloadConfig


@pytest.fixture(autouse=True)
def _sink_guard():
    """Restore whatever sink was installed before the test: unit tests
    configure throwaway recorders and must not leak them into later
    tests (or strand the module-scoped traced stack without its own)."""
    before = tracing.sink()
    yield
    tracing.install(before)


def _deployment(seed="tracing-test"):
    d = build_deployment(seed=seed, rsa_bits=512)
    d.provider.publish("song-1", b"SONG-ONE" * 32, title="Song One", price=3)
    return d


def _rec(trace_id, *, name="pool.collect", duration=0.001, status="ok",
         error="", attrs=None, parent=b""):
    """A hand-built span record in the recorder's internal shape."""
    return {
        "trace": trace_id,
        "span": tracing.new_span_id(),
        "parent": parent,
        "name": name,
        "start": 0.0,
        "duration": duration,
        "status": status,
        "error": error,
        "attrs": {"n": 1} if attrs is None else attrs,
    }


# -- the attribute allowlist (the privacy contract) ---------------------------


class TestAllowlist:
    def test_unknown_span_name_rejected(self):
        with pytest.raises(ParameterError, match="not in registry"):
            tracing.validate_attrs("user.account", {})

    def test_unknown_attribute_key_rejected(self):
        with pytest.raises(ParameterError, match="not in allowlist"):
            tracing.validate_attrs("client.call", {"account": "alice"})

    def test_int_attribute_rejects_bool_and_str(self):
        with pytest.raises(ParameterError, match="must be int"):
            tracing.validate_attrs("client.call", {"n": True})
        with pytest.raises(ParameterError, match="must be int"):
            tracing.validate_attrs("client.call", {"n": "3"})

    def test_str_attribute_rejects_bytes(self):
        # bytes is the type every token/serial/account digest has —
        # it must be inexpressible on the trace surface.
        with pytest.raises(ParameterError, match="must be str"):
            tracing.validate_attrs("client.call", {"op": b"deposit"})

    def test_long_string_rejected(self):
        with pytest.raises(ParameterError, match="too long"):
            tracing.validate_attrs("client.call", {"op": "x" * 65})

    def test_unsafe_charset_rejected(self):
        with pytest.raises(ParameterError, match="unsafe characters"):
            tracing.validate_attrs("client.call", {"op": "de\nposit"})
        with pytest.raises(ParameterError, match="unsafe characters"):
            tracing.validate_attrs("client.call", {"op": "op=(sell)"})

    def test_hex_id_material_rejected(self):
        with pytest.raises(ParameterError, match="hex id material"):
            tracing.validate_attrs("client.call", {"op": os.urandom(16).hex()})
        with pytest.raises(ParameterError, match="hex id material"):
            tracing.validate_attrs(
                "client.call", {"op": "coin deadbeefdeadbeef refused"}
            )

    def test_plain_structural_attributes_pass(self):
        tracing.validate_attrs("shard.spend", {"kind": "ecash", "shard": 3})
        tracing.validate_attrs("client.call", {"op": "deposit", "n": 12})

    def test_error_field_is_bare_class_name(self):
        tracing.validate_error("client.call", "DoubleSpendError")
        tracing.validate_error("client.call", "")
        with pytest.raises(ParameterError, match="bare exception class"):
            tracing.validate_error(
                "client.call", "coin 0af3 already spent at 12:00"
            )

    def test_registry_and_docs_agree(self):
        # The real cross-check is tools/check_docs.py; this pins the
        # registry names so a rename shows up here too.
        names = {spec.name for spec in tracing.SPAN_SPECS}
        assert {"client.call", "net.request", "pool.queue", "worker.request",
                "ledger.intent.create", "ledger.commit",
                "ledger.recover"} <= names


# -- the span API -------------------------------------------------------------


class TestSpanAPI:
    def test_noop_without_sink(self):
        tracing.disable()
        with tracing.span("client.call", root=True, op="sell", n=1) as sp:
            sp.set("n", 2)
            assert tracing.current_context() is None
        assert tracing.kept_traces() == []

    def test_noop_without_parent_unless_root(self):
        rec = tracing.configure(latency_threshold=0.0)
        with tracing.span("worker.request", op="sell", worker=0):
            pass
        assert rec.all_spans() == []

    def test_root_span_nests_and_keeps(self):
        tracing.configure(latency_threshold=0.0)
        with tracing.span("client.call", root=True, boundary=True,
                          op="deposit", n=1):
            outer = tracing.current_context()
            assert outer is not None
            with tracing.span("ledger.commit", shard=2):
                inner = tracing.current_context()
                assert inner.trace_id == outer.trace_id
                assert inner.span_id != outer.span_id
        assert tracing.current_context() is None
        [trace] = tracing.kept_traces()
        assert trace["reason"] == "slow"  # threshold 0.0 keeps everything
        by_name = {s["name"]: s for s in trace["spans"]}
        assert set(by_name) == {"client.call", "ledger.commit"}
        assert by_name["client.call"]["parent"] == ""
        assert by_name["ledger.commit"]["parent"] == by_name["client.call"]["span"]

    def test_exception_marks_error_and_keeps(self):
        tracing.configure(latency_threshold=60.0)
        with pytest.raises(ValueError):
            with tracing.span("client.call", root=True, boundary=True,
                              op="sell", n=1):
                raise ValueError("boom")
        [trace] = tracing.kept_traces()
        assert trace["reason"] == "error"
        [span] = trace["spans"]
        assert span["status"] == "error"
        assert span["error"] == "ValueError"

    def test_bad_attribute_fails_loudly_at_record_time(self):
        tracing.configure(latency_threshold=0.0)
        with pytest.raises(ParameterError):
            with tracing.span("client.call", root=True, op="sell", n=1) as sp:
                sp.set("op", os.urandom(16).hex())

    def test_activate_makes_context_ambient(self):
        rec = tracing.configure(latency_threshold=0.0)
        ctx = tracing.TraceContext(b"\x01" * 16, b"\x02" * 8)
        with tracing.activate(ctx):
            assert tracing.current_context() == ctx
            with tracing.span("pool.collect", n=2):
                pass
        assert tracing.current_context() is None
        [span] = rec.all_spans()
        assert span["trace"] == ctx.trace_id
        assert span["parent"] == ctx.span_id
        with tracing.activate(None):  # explicit no-context is a no-op
            assert tracing.current_context() is None

    def test_record_span_external_timing(self):
        rec = tracing.configure(latency_threshold=0.0)
        out = tracing.record_span(
            "pool.queue", trace_id=b"\x03" * 16, parent_id=b"\x04" * 8,
            start=1.0, duration=-0.5, attrs={"worker": 1},
        )
        assert out["duration"] == 0.0  # clock skew clamps, never negative
        assert rec.all_spans() == [out]
        tracing.disable()
        assert tracing.record_span(
            "pool.queue", trace_id=b"\x03" * 16, parent_id=b"",
            start=0.0, duration=0.0,
        ) is None

    def test_public_span_projection(self):
        rec = _rec(b"\x05" * 16, duration=0.25, parent=b"\x06" * 8)
        public = tracing.public_span(rec)
        assert public["span"] == rec["span"].hex()
        assert public["parent"] == "0606060606060606"
        assert public["duration_micros"] == 250_000
        assert tracing.public_span(_rec(b"\x05" * 16))["parent"] == ""


# -- recorder keep semantics --------------------------------------------------


class TestRecorderKeep:
    def test_fast_ok_trace_stays_pending(self):
        rec = tracing.SpanRecorder(latency_threshold=0.1)
        rec.finish_boundary(_rec(b"\x11" * 16, name="client.call",
                                 duration=0.01, attrs={"op": "sell", "n": 1}))
        assert rec.keep_count() == 0
        assert rec.traces() == []
        assert len(rec.all_spans()) == 1  # still pending, not dropped

    def test_slow_boundary_keeps(self):
        rec = tracing.SpanRecorder(latency_threshold=0.1)
        rec.finish_boundary(_rec(b"\x12" * 16, name="client.call",
                                 duration=0.2, attrs={"op": "sell", "n": 1}))
        [trace] = rec.traces()
        assert trace["reason"] == "slow"

    def test_errored_child_keeps_fast_boundary(self):
        rec = tracing.SpanRecorder(latency_threshold=0.1)
        tid = b"\x13" * 16
        rec.record(_rec(tid, name="ledger.abort", status="error",
                        error="DoubleSpendError", attrs={"shard": 1}),
                   dump=False)
        rec.finish_boundary(_rec(tid, name="client.call", duration=0.001,
                                 attrs={"op": "deposit", "n": 1}))
        [trace] = rec.traces()
        assert trace["reason"] == "error"
        assert len(trace["spans"]) == 2

    def test_forced_keep(self):
        rec = tracing.SpanRecorder(latency_threshold=60.0)
        rec.finish_boundary(
            _rec(b"\x14" * 16, name="ledger.recover", duration=0.0,
                 attrs={"aborted": 0, "released": 0}),
            force=True,
        )
        [trace] = rec.traces()
        assert trace["reason"] == "forced"

    def test_late_boundary_promotes_pending_spans(self):
        rec = tracing.SpanRecorder(latency_threshold=0.1)
        tid = b"\x15" * 16
        rec.finish_boundary(_rec(tid, name="net.request", duration=0.01,
                                 attrs={"op": "sell", "frame": "request"}))
        assert rec.keep_count() == 0
        rec.finish_boundary(_rec(tid, name="client.call", duration=0.5,
                                 attrs={"op": "sell", "n": 1}))
        [trace] = rec.traces()
        assert {s["name"] for s in trace["spans"]} == {
            "net.request", "client.call",
        }

    def test_keep_ring_is_bounded_newest_survive(self):
        rec = tracing.SpanRecorder(latency_threshold=0.0, keep=2)
        for byte in (0x21, 0x22, 0x23):
            rec.finish_boundary(_rec(bytes([byte]) * 16, name="client.call",
                                     duration=0.1, attrs={"op": "sell", "n": 1}))
        assert rec.keep_count() == 2
        assert [t["trace"] for t in rec.traces()] == ["22" * 16, "23" * 16]

    def test_spans_after_keep_join_the_kept_trace(self):
        rec = tracing.SpanRecorder(latency_threshold=0.0)
        tid = b"\x16" * 16
        rec.finish_boundary(_rec(tid, name="client.call", duration=0.1,
                                 attrs={"op": "sell", "n": 1}))
        rec.ingest([_rec(tid, name="worker.request",
                         attrs={"op": "sell", "worker": 0})])
        [trace] = rec.traces()
        assert len(trace["spans"]) == 2

    def test_per_trace_span_cap_counts_drops(self):
        rec = tracing.SpanRecorder(latency_threshold=0.0,
                                   max_spans_per_trace=2)
        tid = b"\x17" * 16
        for _ in range(4):
            rec.record(_rec(tid), dump=False)
        assert rec.dropped_spans == 2
        assert len(rec.all_spans()) == 2

    def test_pending_map_is_bounded(self):
        rec = tracing.SpanRecorder(latency_threshold=60.0, max_pending=2)
        for byte in (0x31, 0x32, 0x33):
            rec.record(_rec(bytes([byte]) * 16), dump=False)
        assert rec.dropped_traces == 1
        assert len(rec.all_spans()) == 2

    def test_on_keep_hook_fires_with_entry(self):
        rec = tracing.SpanRecorder(latency_threshold=0.0)
        seen = []
        rec.on_keep(lambda tid, entry: seen.append((tid, entry["reason"])))
        rec.finish_boundary(_rec(b"\x18" * 16, name="client.call",
                                 duration=0.1, attrs={"op": "sell", "n": 1}))
        assert seen == [(b"\x18" * 16, "slow")]

    def test_collector_drains_per_trace(self):
        col = tracing.SpanCollector(max_spans=8)
        a, b = b"\x0a" * 16, b"\x0b" * 16
        col.record(_rec(a))
        col.record(_rec(b))
        col.record(_rec(a))
        assert len(col.drain(a)) == 2
        assert col.drain(a) == []
        assert len(col.drain(b)) == 1

    def test_collector_evicts_stalest_trace_wholesale(self):
        col = tracing.SpanCollector(max_spans=2)
        a, b = b"\x0c" * 16, b"\x0d" * 16
        col.record(_rec(a))
        col.record(_rec(a))
        col.record(_rec(b))
        assert col.drain(a) == []  # evicted whole, never truncated
        assert len(col.drain(b)) == 1
        assert col.dropped == 2


# -- wire propagation ---------------------------------------------------------


class TestWireMeta:
    def test_trace_context_round_trips_and_strips_clean(self):
        ctx = tracing.TraceContext(os.urandom(16), os.urandom(8))
        request = DepositRequest(account="m", coins=())
        traced = wire.encode_request(request, trace=ctx)
        assert wire.parse_request(traced).trace == ctx
        assert wire.parse_request(traced).request() == request
        assert wire.decode_request(traced) == request
        assert wire.parse_request(wire.encode_request(request)).trace is None
        # The meta field is the ONLY difference tracing makes to the
        # bytes — the byte-identity guarantee for everything else.
        envelope = codec.decode(traced)
        envelope.pop("meta")
        assert codec.encode(envelope) == wire.encode_request(request)

    def test_malformed_meta_is_untraced_never_fatal(self):
        request = DepositRequest(account="m", coins=())
        envelope = codec.decode(wire.encode_request(request))
        envelope["meta"] = {"trace": b"short", "span": b"x"}
        assert wire.parse_request(codec.encode(envelope)).trace is None
        envelope["meta"] = {"trace": os.urandom(16)}  # span missing
        assert wire.parse_request(codec.encode(envelope)).trace is None
        # Not an envelope at all: the one parse refuses it with a typed
        # error the request path answers, instead of a silent None.
        with pytest.raises(CodecError):
            wire.parse_request(b"\x00garbage")


# -- the traced stack over TCP ------------------------------------------------


@pytest.fixture(scope="module")
def traced_stack(tmp_path_factory):
    """A 2-worker/4-shard gateway built with tracing on (threshold 0.0
    keeps every trace), behind a socket server with a metrics listener."""
    d = _deployment(seed="tracing-e2e")
    directory = tmp_path_factory.mktemp("tracing-shards")
    gateway = build_gateway(d, str(directory), workers=2, shards=4,
                            tracing=True, trace_threshold=0.0, trace_keep=256)
    rec = tracing.recorder()
    assert rec is not None
    server = NetServer(gateway, metrics_port=0)
    address = server.start()
    client = NetClient(address)
    yield d, gateway, server, client, rec
    client.close()
    server.close()
    gateway.close()
    tracing.disable()


@pytest.fixture()
def traced(traced_stack):
    """Reinstall the stack's recorder (unit tests swap the sink)."""
    tracing.install(traced_stack[4])
    return traced_stack


def test_deposit_span_tree_covers_every_hop(traced):
    """The acceptance trace: client -> frame decode -> pool queue ->
    worker -> per-shard spends -> 2PC commit, all one tree."""
    d, _gateway, _server, client, rec = traced
    payer = d.add_user("trace-payer", balance=1_000)
    coins = payer.coins_for(3, d.bank)
    receipt = client.deposit("trace-merchant", coins)
    assert receipt["credited"] == 3

    deposits = [t for t in rec.traces()
                if any(s["name"] == "ledger.commit" for s in t["spans"])]
    assert deposits, "no kept deposit trace"
    spans = deposits[-1]["spans"]
    names = {s["name"] for s in spans}
    assert {"client.call", "net.request", "net.frame.decode", "pool.queue",
            "pool.request", "pool.collect", "worker.request",
            "ledger.intent.create", "ledger.spend", "ledger.commit",
            "shard.spend"} <= names

    by_id = {s["span"]: s for s in spans}
    roots = [s for s in spans if s["parent"] == ""]
    assert len(roots) == 1 and roots[0]["name"] == "client.call"
    assert roots[0]["attrs"] == {"op": "deposit", "n": 1}
    for s in spans:  # every parent resolves inside the same trace
        if s["parent"]:
            assert s["parent"] in by_id, s

    [worker_span] = [s for s in spans if s["name"] == "worker.request"]
    phases = [s for s in spans if s["name"].startswith("ledger.")]
    assert phases and all(p["parent"] == worker_span["span"] for p in phases)
    create = next(s for s in spans if s["name"] == "ledger.intent.create")
    commit = next(s for s in spans if s["name"] == "ledger.commit")
    spends = [s for s in spans if s["name"] == "ledger.spend"]
    assert len(spends) == 3  # one per coin
    assert create["attrs"]["coins"] == 3
    assert all(create["start_micros"] <= sp["start_micros"] for sp in spends)
    assert all(sp["start_micros"] <= commit["start_micros"] for sp in spends)
    # The cross-shard part: each spend wraps its shard.spend write.
    spend_ids = {s["span"] for s in spends}
    shard_writes = [s for s in spans if s["name"] == "shard.spend"]
    assert shard_writes and all(s["parent"] in spend_ids for s in shard_writes)


def test_each_call_is_its_own_trace(traced):
    d, _gateway, _server, client, rec = traced
    before = rec.keep_count()
    for index in range(2):
        payer = d.add_user(f"trace-multi-{index}", balance=100)
        client.deposit("trace-merchant", payer.coins_for(1, d.bank))
    traces = rec.traces()
    assert rec.keep_count() >= before + 2
    ids = [t["trace"] for t in traces]
    assert len(ids) == len(set(ids))


def test_traces_control_frame_matches_recorder(traced):
    d, _gateway, _server, client, rec = traced
    payer = d.add_user("trace-ctl", balance=100)
    client.deposit("trace-merchant", payer.coins_for(1, d.bank))
    assert client.traces() == rec.traces()


def test_http_traces_surface_with_exemplars(traced):
    d, _gateway, server, client, rec = traced
    payer = d.add_user("trace-http", balance=100)
    client.deposit("trace-merchant", payer.coins_for(1, d.bank))
    host, port = server.metrics_address
    with urllib.request.urlopen(
        f"http://{host}:{port}/traces", timeout=30
    ) as response:
        assert response.headers["Content-Type"].startswith("application/json")
        document = json.loads(response.read().decode("utf-8"))
    kept_ids = {t["trace"] for t in document["traces"]}
    assert kept_ids == {t["trace"] for t in rec.traces()}
    # Exemplars join the latency histogram back to kept traces.
    assert document["exemplars"], "no exemplar series recorded"
    for series in document["exemplars"]:
        assert series["labels"].get("op")
        for bucket in series["buckets"].values():
            assert bucket["trace"] in kept_ids


def test_tracing_does_not_change_response_bytes(traced, tmp_path):
    """Byte-identity across the tracing switch: the same deposit
    through an untraced gateway answers the same receipt."""
    d, _gateway, _server, client, _rec = traced
    payer = d.add_user("trace-bytes", balance=1_000)
    coins = payer.coins_for(2, d.bank)
    plain = build_gateway(d, str(tmp_path / "plain"), workers=1, shards=2)
    try:
        assert client.deposit("bytes-merchant", coins) == plain.deposit(
            "bytes-merchant", coins
        )
    finally:
        plain.close()


# -- failure traces -----------------------------------------------------------


class TestFailureTraces:
    def test_worker_sigkill_keeps_error_trace(self, tmp_path):
        """A worker killed mid-flight: the client's trace is kept with
        reason "error" and its pool.request span carries the
        worker-death verdict (outcome=dead, error=ServiceError)."""
        d = _deployment(seed="tracing-sigkill")
        gateway = build_gateway(d, str(tmp_path / "shards"), workers=2,
                                shards=4, tracing=True, trace_threshold=60.0)
        try:
            payer = d.add_user("doomed-payer", balance=1_000)
            coins = payer.coins_for(2, d.bank)
            os.kill(gateway._processes[0].pid, signal.SIGKILL)
            time.sleep(0.2)
            request = DepositRequest(account="doom", coins=tuple(coins))
            with pytest.raises(ServiceError, match="died"):
                gateway.call_many([request], worker=0)

            rec = tracing.recorder()
            errored = [t for t in rec.traces() if t["reason"] == "error"]
            assert len(errored) == 1
            spans = errored[0]["spans"]
            assert {"client.call", "pool.request"} <= {
                s["name"] for s in spans
            }
            [pool_span] = [s for s in spans if s["name"] == "pool.request"]
            assert pool_span["attrs"]["outcome"] == "dead"
            assert pool_span["status"] == "error"
            assert pool_span["error"] == "ServiceError"
        finally:
            gateway.close()
            tracing.disable()

    def test_recovery_trace_names_presumed_abort_path(self, tmp_path):
        """A pending intent staged on the shard files (the crash
        window), then a traced restart: the recovery sweep emits a
        force-kept trace whose ledger.recover.intent children count
        the released spends — by shard, never by account."""
        d = _deployment(seed="tracing-recovery")
        directory = str(tmp_path / "shards")
        gateway = build_gateway(d, directory, workers=2, shards=4)
        account = gateway.bank_account
        user = d.add_user("recover-user", balance=1_000)
        coins = withdraw_coins(user, d.bank, 6)
        gateway.close()

        shards = ShardSet(ShardSet.paths_in_directory(directory, 4))
        try:
            ledger = ShardedLedger(shards)
            spent = ShardedSpentTokenStore(shards, "ecash")
            crashed = b"R" * 16
            pairs = sorted(((c.spent_token(), c.value) for c in coins),
                           key=lambda pair: pair[0])
            ledger.store_for(account).create_intent(
                crashed, account, 6, at=5_000, payload=intent_payload(pairs)
            )
            for token, value in pairs[:2]:
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

        reopened = build_gateway(d, directory, workers=2, shards=4,
                                 tracing=True, trace_threshold=60.0)
        try:
            assert reopened.recovery_summary == {"aborted": 1, "released": 2}
            rec = tracing.recorder()
            forced = [t for t in rec.traces() if t["reason"] == "forced"]
            assert forced, "recovery did not force-keep a trace"
            spans = forced[-1]["spans"]
            [sweep] = [s for s in spans if s["name"] == "ledger.recover"]
            assert sweep["attrs"] == {"aborted": 1, "released": 2}
            intents = [s for s in spans
                       if s["name"] == "ledger.recover.intent"]
            assert len(intents) == 1
            assert intents[0]["parent"] == sweep["span"]
            assert intents[0]["attrs"]["released"] == 2
        finally:
            reopened.close()
            tracing.disable()


# -- the privacy audit over a full simulation --------------------------------


class TestPrivacyAudit:
    def test_full_sim_trace_surface_carries_no_identifiers(self):
        """Run the whole marketplace over TCP with keep-everything
        tracing; walk every span the recorder holds, re-validate it
        against the allowlist, and assert no attribute contains any
        identifier the client side observed (card ids, pseudonym
        fingerprints, account names)."""
        config = WorkloadConfig(n_users=4, n_contents=5, n_events=25, seed=11)
        with MarketplaceSimulator(
            config, rsa_bits=512, service_workers=2, service_shards=4,
            service_transport="tcp", service_tracing=True,
            service_trace_threshold=0.0,
        ) as simulator:
            report = simulator.run()
            rec = tracing.recorder()
            assert rec is not None
            spans = rec.all_spans()
            identifiers = set()
            for user in simulator._users.values():
                identifiers.add(user.card.card_id.hex())
                identifiers.add(user.bank_account)
            for fingerprint, card_id in report.ground_truth.items():
                identifiers.add(fingerprint.hex())
                identifiers.add(card_id.hex())
        # Drop trivially-short names ("user-3") that could only match
        # by coincidence — every real identifier is long hex.
        identifiers = {i.lower() for i in identifiers if len(i) >= 8}
        assert identifiers and spans

        names = set()
        for rec_span in spans:
            public = tracing.public_span(rec_span)
            tracing.validate_attrs(public["name"], public["attrs"])
            tracing.validate_error(public["name"], public["error"])
            names.add(public["name"])
            values = [public["name"], public["error"]]
            values += [v for v in public["attrs"].values()
                       if isinstance(v, str)]
            haystack = " ".join(values).lower()
            for identifier in identifiers:
                assert identifier not in haystack, public
        # The run exercised the whole path, not a trivial corner.
        assert {"client.call", "net.request", "pool.queue", "pool.request",
                "pool.collect", "worker.request", "shard.spend"} <= names
