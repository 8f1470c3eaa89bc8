"""Property-based tests for the canonical codec (hypothesis), and for
the service wire format built on top of it."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import codec
from repro.core.messages import DepositRequest, MisuseEvidence
from repro.service import wire

# Heavy hypothesis sweeps: the fast CI lane deselects these with
# ``-m "not slow"``; the full lane runs them.
pytestmark = pytest.mark.slow

# Codec value space: recursive None/bool/int/bytes/str/list/dict.
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.binary(max_size=64)
    | st.text(max_size=32)
)
values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20,
)


class TestCodecProperties:
    @given(values)
    @settings(max_examples=300)
    def test_roundtrip(self, value):
        decoded = codec.decode(codec.encode(value))
        assert _strict(decoded) == _strict(value)

    @given(values)
    @settings(max_examples=200)
    def test_encoding_is_fixed_point(self, value):
        """decode∘encode then encode again reproduces the same bytes —
        canonical form is a fixed point."""
        encoded = codec.encode(value)
        assert codec.encode(codec.decode(encoded)) == encoded

    @given(values, values)
    @example(False, 0)
    @example(True, 1)
    @settings(max_examples=200)
    def test_injective_on_distinct_values(self, left, right):
        if _strict(left) != _strict(right):
            assert codec.encode(left) != codec.encode(right)
        else:
            assert codec.encode(left) == codec.encode(right)

    @given(st.binary(max_size=200))
    @settings(max_examples=300)
    def test_decoder_total_on_garbage(self, blob):
        """Arbitrary bytes either decode to a value whose re-encoding is
        exactly the input, or raise CodecError — never crash, never
        accept non-canonical input."""
        try:
            value = codec.decode(blob)
        except codec.CodecError:
            return
        assert codec.encode(value) == blob

    @given(st.lists(values, max_size=4))
    @settings(max_examples=100)
    def test_stream_roundtrip(self, items):
        stream = b"".join(codec.encode(item) for item in items)
        assert list(codec.iter_decode(stream)) == [_normalize(i) for i in items]


@pytest.fixture(scope="module")
def wire_messages(deployment):
    """Real protocol messages to mutate: one of each request family."""
    from repro.core.protocols.acquisition import build_purchase_request
    from repro.core.protocols.transfer import (
        build_exchange_request,
        build_redeem_request,
    )

    d = deployment
    alice = d.add_user("props-alice", balance=10_000)
    bob = d.add_user("props-bob", balance=10_000)
    purchase = build_purchase_request(alice, d.provider, d.issuer, d.bank, "song-1")
    license_ = d.provider.sell(purchase)
    alice.add_license(license_)
    exchange = build_exchange_request(alice, license_)
    anonymous = d.provider.exchange(exchange)
    redeem = build_redeem_request(bob, d.provider, d.issuer, anonymous)
    return {"purchase": purchase, "exchange": exchange, "redeem": redeem}


def _wire_roundtrip(request):
    encoded = wire.encode_request(request)
    decoded = wire.decode_request(encoded)
    assert decoded == request
    assert wire.encode_request(decoded) == encoded


_nonces = st.binary(min_size=16, max_size=16)
_timestamps = st.integers(min_value=0, max_value=2**48)
_serials = st.binary(min_size=1, max_size=32)


class TestWireRequestProperties:
    """Every request survives encode→decode byte-for-byte, whatever
    the client put in the free fields (the signatures go stale under
    mutation, but the wire layer never interprets them)."""

    @given(nonce=_nonces, at=_timestamps)
    @settings(max_examples=30, deadline=None)
    def test_purchase_roundtrip(self, wire_messages, nonce, at):
        _wire_roundtrip(replace(wire_messages["purchase"], nonce=nonce, at=at))

    @given(
        nonce=_nonces,
        at=_timestamps,
        serial=_serials,
        value=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_purchase_coin_fields_roundtrip(
        self, wire_messages, nonce, at, serial, value
    ):
        base = wire_messages["purchase"]
        coins = tuple(
            replace(coin, serial=serial + bytes([i]), value=value)
            for i, coin in enumerate(base.coins)
        )
        _wire_roundtrip(replace(base, nonce=nonce, at=at, coins=coins))

    @given(
        nonce=_nonces,
        at=_timestamps,
        restrict=st.none() | st.lists(st.sampled_from(
            ["play", "display", "print", "transfer"]), max_size=3).map(tuple),
    )
    @settings(max_examples=30, deadline=None)
    def test_exchange_roundtrip(self, wire_messages, nonce, at, restrict):
        _wire_roundtrip(
            replace(
                wire_messages["exchange"], nonce=nonce, at=at, restrict_to=restrict
            )
        )

    @given(nonce=_nonces, at=_timestamps)
    @settings(max_examples=30, deadline=None)
    def test_redeem_roundtrip(self, wire_messages, nonce, at):
        _wire_roundtrip(replace(wire_messages["redeem"], nonce=nonce, at=at))

    @given(
        account=st.text(max_size=24),
        serials=st.lists(_serials, max_size=4, unique=True),
        value=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_deposit_roundtrip(self, wire_messages, account, serials, value):
        template = wire_messages["purchase"].coins[0]
        request = DepositRequest(
            account=account,
            coins=tuple(
                replace(template, serial=serial, value=value) for serial in serials
            ),
        )
        _wire_roundtrip(request)


class TestWireResponseProperties:
    @given(
        kind=st.sampled_from(["double-redemption", "double-spend"]),
        token=st.binary(min_size=1, max_size=32),
        content=st.text(max_size=16),
        first=st.binary(max_size=64),
        second=st.binary(max_size=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_misuse_evidence_survives_error_envelope(
        self, kind, token, content, first, second
    ):
        from repro.errors import DoubleRedemptionError

        evidence = MisuseEvidence(
            kind=kind,
            token_id=token,
            content_id=content,
            first_transcript=first,
            second_transcript=second,
        )
        error = DoubleRedemptionError(token)
        error.evidence = evidence
        decoded = wire.decode_response(wire.encode_response(error))
        assert isinstance(decoded, DoubleRedemptionError)
        assert decoded.token_id == token
        assert decoded.evidence == evidence

    @given(account=st.text(max_size=24), credited=st.integers(0, 2**40))
    @settings(max_examples=40, deadline=None)
    def test_receipt_roundtrip(self, account, credited):
        receipt = {"account": account, "credited": credited}
        encoded = wire.encode_response(receipt)
        assert wire.decode_response(encoded) == receipt
        assert wire.encode_response(wire.decode_response(encoded)) == encoded


def _normalize(value):
    """What the codec canonically preserves (tuples→lists)."""
    if isinstance(value, tuple):
        return [_normalize(v) for v in value]
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, (bytearray, memoryview)):
        return bytes(value)
    return value


def _strict(value):
    """:func:`_normalize` with bools tagged, so the oracle is as
    type-strict as the codec: Python's ``False == 0`` and ``True == 1``
    would otherwise call two distinctly encoded values equal."""
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    return _normalize(value)
