"""Wire-format round trips: every request/response survives the codec
byte-for-byte, including the exceptions the desks raise."""

import pytest

from repro import codec
from repro.core.messages import Coin, DepositRequest, MisuseEvidence
from repro.core.protocols.acquisition import build_purchase_request
from repro.core.protocols.transfer import (
    build_exchange_request,
    build_redeem_request,
    exchange_for_anonymous,
)
from repro.errors import (
    AuthenticationError,
    CodecError,
    DoubleRedemptionError,
    DoubleSpendError,
    PaymentError,
    ReproError,
    RightsDenied,
)
from repro.service import wire


@pytest.fixture(scope="module")
def messages(deployment):
    """One real instance of every request/response message."""
    d = deployment
    alice = d.add_user("wire-alice", balance=1_000)
    bob = d.add_user("wire-bob", balance=1_000)
    purchase = build_purchase_request(alice, d.provider, d.issuer, d.bank, "song-1")
    license_ = d.provider.sell(purchase)
    alice.add_license(license_)

    exchange = build_exchange_request(alice, license_, restrict_to=("play",))
    anonymous = d.provider.exchange(exchange)
    redeem = build_redeem_request(bob, d.provider, d.issuer, anonymous)
    deposit = DepositRequest(
        account="wire-merchant",
        coins=tuple(alice.coins_for(3, d.bank)),
    )
    return {
        "purchase": purchase,
        "exchange": exchange,
        "redeem": redeem,
        "deposit": deposit,
        "license": d.provider.redeem(redeem),
        "anonymous": exchange_for_anonymous(
            alice, d.provider, _second_license(alice, d)
        ),
    }


def _second_license(alice, d):
    request = build_purchase_request(alice, d.provider, d.issuer, d.bank, "song-1")
    license_ = d.provider.sell(request)
    alice.add_license(license_)
    return license_.license_id


class TestRequestRoundTrips:
    @pytest.mark.parametrize("kind", ["purchase", "exchange", "redeem", "deposit"])
    def test_encode_decode_byte_identical(self, messages, kind):
        request = messages[kind]
        encoded = wire.encode_request(request)
        decoded = wire.decode_request(encoded)
        assert decoded == request
        assert wire.encode_request(decoded) == encoded

    def test_request_kind_routing(self, messages):
        assert wire.request_kind(messages["purchase"]) == wire.KIND_SELL
        assert wire.request_kind(messages["redeem"]) == wire.KIND_REDEEM
        assert wire.request_kind(messages["exchange"]) == wire.KIND_EXCHANGE
        assert wire.request_kind(messages["deposit"]) == wire.KIND_DEPOSIT

    def test_unknown_object_rejected(self):
        with pytest.raises(CodecError):
            wire.encode_request(object())

    def test_routing_token_matches_typed_request(self, messages):
        """The parsed envelope's routing token must be byte-equal to the
        token the typed request carries — shard affinity through the
        network gateway and through the in-process gateway is one
        formula."""
        expected = {
            "purchase": messages["purchase"].certificate.fingerprint,
            "exchange": messages["exchange"].license_id,
            "redeem": messages["redeem"].anonymous_license.license_id,
            "deposit": messages["deposit"].coins[0].spent_token(),
        }
        for kind, token in expected.items():
            encoded = wire.encode_request(messages[kind])
            assert wire.parse_request(encoded).routing_token() == token, kind

    def test_parse_rejects_malformed_shapes(self, messages):
        with pytest.raises(CodecError):
            wire.parse_request(codec.encode({"what": "nope"}))
        hollow = wire.parse_request(
            codec.encode({"what": "service-request", "kind": "sell", "body": {}})
        )
        with pytest.raises(CodecError):
            hollow.routing_token()
        with pytest.raises(CodecError):
            hollow.request()

    def test_parse_rejects_unknown_kinds(self):
        for kind in ("mint", ["sell"], None):
            with pytest.raises(CodecError):
                wire.parse_request(
                    codec.encode({"what": "service-request", "kind": kind, "body": {}})
                )

    def test_parse_reads_nonce_best_effort(self, messages):
        request = messages["deposit"]
        nonce = b"n" * wire.NONCE_BYTES
        assert wire.parse_request(wire.encode_request(request, nonce=nonce)).nonce == nonce
        assert wire.parse_request(wire.encode_request(request)).nonce is None
        envelope = codec.decode(wire.encode_request(request))
        for meta in ({"nonce": b"short"}, {"nonce": 7}, b"not-a-dict"):
            envelope["meta"] = meta
            parsed = wire.parse_request(codec.encode(envelope))
            assert parsed.nonce is None
            assert parsed.request() == request

    def test_malformed_bodies_decode_to_codec_error(self):
        hollow = codec.encode(
            {"what": "service-request", "kind": "redeem", "body": {"nonce": b"x"}}
        )
        with pytest.raises(CodecError):
            wire.decode_request(hollow)
        with pytest.raises(CodecError):
            wire.decode_response(
                codec.encode({"what": "service-response", "kind": "deposit-receipt"})
            )
        # A mistyped error body decodes to CodecError, not KeyError.
        with pytest.raises(CodecError):
            wire.decode_error({"type": "DoubleSpendError"})

    def test_garbage_envelope_rejected(self, messages):
        with pytest.raises(CodecError):
            wire.decode_request(codec.encode({"what": "something-else"}))
        # A *response* envelope is not a request envelope.
        with pytest.raises(CodecError):
            wire.decode_request(wire.encode_response(messages["license"]))


class TestResponseRoundTrips:
    def test_personal_license(self, messages):
        license_ = messages["license"]
        encoded = wire.encode_response(license_)
        decoded = wire.decode_response(encoded)
        assert decoded == license_
        assert wire.encode_response(decoded) == encoded

    def test_anonymous_license(self, deployment, messages):
        anonymous = messages["anonymous"]
        decoded = wire.decode_response(wire.encode_response(anonymous))
        assert decoded == anonymous
        decoded.verify(deployment.provider.license_key)

    def test_deposit_receipt(self):
        receipt = {"account": "merchant", "credited": 42}
        assert wire.decode_response(wire.encode_response(receipt)) == receipt

    def test_plain_errors(self):
        for error in (
            AuthenticationError("bad signature"),
            PaymentError("short payment"),
            RightsDenied("print", "not granted"),
        ):
            decoded = wire.decode_response(wire.encode_response(error))
            assert type(decoded) is type(error)
            assert str(decoded) == str(error)

    def test_double_spend_keeps_coin_id(self):
        decoded = wire.decode_response(
            wire.encode_response(DoubleSpendError(b"\xaa" * 16))
        )
        assert isinstance(decoded, DoubleSpendError)
        assert decoded.coin_id == b"\xaa" * 16

    def test_double_redemption_keeps_evidence(self):
        evidence = MisuseEvidence(
            kind="double-redemption",
            token_id=b"\x01" * 16,
            content_id="song-1",
            first_transcript=b"first",
            second_transcript=b"second",
        )
        error = DoubleRedemptionError(b"\x01" * 16)
        error.evidence = evidence
        decoded = wire.decode_response(wire.encode_response(error))
        assert isinstance(decoded, DoubleRedemptionError)
        assert decoded.token_id == b"\x01" * 16
        assert decoded.evidence == evidence

    def test_unknown_error_type_degrades_to_base(self):
        blob = codec.encode(
            {
                "what": "service-response",
                "kind": "error",
                "body": {"type": "FutureError", "message": "from v9"},
            }
        )
        decoded = wire.decode_response(blob)
        assert isinstance(decoded, ReproError)
        assert "FutureError" in str(decoded)

    def test_coin_round_trip_inside_deposit(self, messages):
        deposit = messages["deposit"]
        decoded = wire.decode_request(wire.encode_request(deposit))
        assert all(isinstance(coin, Coin) for coin in decoded.coins)
        assert decoded.coins == deposit.coins
