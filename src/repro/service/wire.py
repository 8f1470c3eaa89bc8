"""Wire format for the service layer: every request and response as
canonical bytes.

The protocol dataclasses in :mod:`repro.core.messages` already know
their codec dict form (``as_dict``/``from_dict``); this module wraps
them in a type-tagged envelope so a byte string is self-describing —
a gateway can route it and a worker can decode it without out-of-band
context.  The envelope rides the same canonical codec the signatures
use, so encoding is deterministic: one object, one byte string,
``decode(encode(x)) == x`` byte-for-byte.

Errors are first-class wire citizens.  A worker cannot raise across a
process boundary, so every exception the desks produce is encoded with
its type, message and evidence payload (a
:class:`~repro.core.messages.MisuseEvidence` survives the trip intact
— the TTP needs it verbatim), and the gateway re-raises a faithful
reconstruction on the caller's side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import codec
from ..core.identity import Pseudonym
from ..core.licenses import AnonymousLicense, PersonalLicense
from ..core.messages import (
    Coin,
    DepositRequest,
    ExchangeRequest,
    MisuseEvidence,
    PurchaseRequest,
    RedeemRequest,
    WithdrawRequest,
)
from ..errors import (
    CodecError,
    DoubleRedemptionError,
    DoubleSpendError,
    OverloadedError,
    ReproError,
    RightsDenied,
)
from .tracing import SPAN_ID_BYTES, TRACE_ID_BYTES, TraceContext

#: What the decoders accept: the hot path hands them
#: ``memoryview`` slices straight out of the frame decoder, and the
#: canonical codec reads through any bytes-like object.
Buffer = bytes | bytearray | memoryview

# -- request envelopes -------------------------------------------------------

KIND_SELL = "sell"
KIND_REDEEM = "redeem"
KIND_EXCHANGE = "exchange"
KIND_DEPOSIT = "deposit"
KIND_WITHDRAW = "withdraw"

_REQUEST_WHAT = "service-request"
_RESPONSE_WHAT = "service-response"

_REQUEST_TYPES: dict[str, type] = {
    KIND_SELL: PurchaseRequest,
    KIND_REDEEM: RedeemRequest,
    KIND_EXCHANGE: ExchangeRequest,
    KIND_DEPOSIT: DepositRequest,
    KIND_WITHDRAW: WithdrawRequest,
}
_KIND_OF_TYPE = {cls: kind for kind, cls in _REQUEST_TYPES.items()}


def request_kind(request) -> str:
    """The wire kind for a request object (routing key at the gateway)."""
    try:
        return _KIND_OF_TYPE[type(request)]
    except KeyError:
        raise CodecError(
            f"not a service request: {type(request).__name__}"
        ) from None


#: Length of an idempotency nonce (bytes).  16 random bytes make
#: accidental collision between two *distinct* requests negligible;
#: the nonce is a client-chosen retry-correlation key, never a secret.
NONCE_BYTES = 16


def encode_request(request, trace=None, nonce: bytes | None = None) -> bytes:
    """Self-describing canonical bytes for any protocol request.

    ``trace`` (a :class:`~repro.service.tracing.TraceContext`) adds an
    optional ``meta`` key carrying the caller's trace/span ids so the
    worker can parent its spans to the client's root span.  ``nonce``
    rides the same ``meta`` dict: a client-chosen idempotency key the
    server's replay cache dedupes retries on (see
    :mod:`repro.service.replay`) — a resent envelope carrying the same
    nonce byte-identically is answered with the original response
    instead of being applied twice.  Decoders ignore ``meta`` entirely
    — the typed request round-trips unchanged — and *responses* never
    carry it, which preserves the byte-identity guarantee between the
    queue, TCP, and in-process arms.
    """
    envelope = {
        "what": _REQUEST_WHAT,
        "kind": request_kind(request),
        "body": request.as_dict(),
    }
    meta: dict = {}
    if trace is not None:
        meta["trace"] = trace.trace_id
        meta["span"] = trace.span_id
    if nonce is not None:
        if len(nonce) != NONCE_BYTES:
            raise CodecError(
                f"idempotency nonce must be {NONCE_BYTES} bytes,"
                f" got {len(nonce)}"
            )
        meta["nonce"] = bytes(nonce)
    if meta:
        envelope["meta"] = meta
    return codec.encode(envelope)


def parse_request(data: Buffer) -> RequestEnvelope:
    """The one parse of an encoded request: a single ``codec.decode``.

    Every process reads a request through exactly one of these — the
    socket server for its withdraw gate, replay lookup, shed label,
    spans and routing; the worker for its desks — so the envelope
    format has one reader and no request is decoded twice.

    Raises :class:`~repro.errors.CodecError` for anything that is not
    a request envelope (undecodable bytes, a wrong ``what``, an
    unknown ``kind``).  The ``meta`` dict is best effort: a missing or
    malformed one just leaves ``nonce`` / ``trace`` at ``None`` —
    every pre-tracing, pre-retry client is simply untraced and not
    idempotent-keyed.  The body is not examined here: a bad one
    raises from :meth:`RequestEnvelope.request` or
    :meth:`RequestEnvelope.routing_token`.
    """
    envelope = codec.decode(data)
    if not isinstance(envelope, dict) or envelope.get("what") != _REQUEST_WHAT:
        raise CodecError("not a service request envelope")
    kind = envelope.get("kind")
    if not isinstance(kind, str) or kind not in _REQUEST_TYPES:
        raise CodecError(f"unknown request kind {kind!r}")
    meta = envelope.get("meta")
    if not isinstance(meta, dict):
        meta = {}
    return RequestEnvelope(
        kind, envelope.get("body"), _meta_nonce(meta), _meta_trace(meta)
    )


def _meta_nonce(meta: dict) -> bytes | None:
    nonce = meta.get("nonce")
    if isinstance(nonce, bytes) and len(nonce) == NONCE_BYTES:
        return nonce
    return None


def _meta_trace(meta: dict) -> TraceContext | None:
    trace_id, span_id = meta.get("trace"), meta.get("span")
    if (
        isinstance(trace_id, bytes)
        and isinstance(span_id, bytes)
        and len(trace_id) == TRACE_ID_BYTES
        and len(span_id) == SPAN_ID_BYTES
    ):
        return TraceContext(trace_id, span_id)
    return None


@dataclass(frozen=True)
class RequestEnvelope:
    """A parsed request envelope (see :func:`parse_request`).

    ``body`` is the codec dict the typed request is built from;
    ``nonce`` is the idempotency key the replay caches dedupe on and
    ``trace`` the caller's span context, each ``None`` when ``meta``
    does not carry a well-formed one.
    """

    kind: str
    body: object
    nonce: bytes | None
    trace: TraceContext | None

    def request(self):
        """The typed request dataclass.

        Strictly :class:`~repro.errors.CodecError` on a garbage body
        (missing fields, wrong types): the network path answers peers
        from the exception type, and only ``ReproError`` subclasses
        are wired for the trip back.
        """
        try:
            return _REQUEST_TYPES[self.kind].from_dict(self.body)
        except ReproError:
            raise
        except Exception as exc:
            raise CodecError(
                f"malformed {self.kind} request body: {exc!r}"
            ) from exc

    def routing_token(self) -> bytes:
        """The shard-affinity token, without building the typed request.

        The network gateway routes envelopes it never otherwise
        inspects (worker desks build the request for themselves), so
        this reads just the affinity field from the body: redeem and
        exchange tokens *are* raw fields; sells derive the certificate
        fingerprint through the same :class:`~repro.core.identity.
        Pseudonym` the full request would build; deposits build one
        :class:`~repro.core.messages.Coin` so ``spent_token()`` keeps
        sole ownership of the exactly-once key formula.  Every token
        is byte-equal to what the typed request would yield, and any
        malformed shape raises :class:`~repro.errors.CodecError`
        (deeper garbage is the worker's to refuse).
        """
        kind, body = self.kind, self.body
        try:
            if kind == KIND_REDEEM:
                return bytes(body["anon"]["id"])
            if kind == KIND_EXCHANGE:
                return bytes(body["license"])
            if kind == KIND_SELL:
                return Pseudonym.from_dict(body["cert"]["pseudonym"]).fingerprint
            if kind == KIND_WITHDRAW:
                # Withdrawals route by account: the debit serializes at
                # the account's home-shard write lock wherever it runs,
                # so the affinity is a cache-locality choice, not a
                # correctness one.
                return str(body["account"]).encode("utf-8")
            coins = body["coins"]
            if not coins:
                return b"deposit"
            return Coin.from_dict(coins[0]).spent_token()
        except ReproError:
            raise
        except Exception as exc:
            raise CodecError(
                f"malformed {kind} request routing fields: {exc!r}"
            ) from exc


def decode_request(data: Buffer):
    """Inverse of :func:`encode_request`; returns the typed dataclass
    (:func:`parse_request` then :meth:`RequestEnvelope.request`)."""
    return parse_request(data).request()


# -- response envelopes ------------------------------------------------------

RESPONSE_PERSONAL = "personal-license"
RESPONSE_ANONYMOUS = "anonymous-license"
RESPONSE_RECEIPT = "deposit-receipt"
RESPONSE_ERROR = "error"


def encode_response(result) -> bytes:
    """Canonical bytes for a desk outcome — a licence, a receipt dict
    (``{"account", "credited"}`` for deposits, ``{"account",
    "denomination", "signature"}`` for blind withdrawals), or an
    exception."""
    if isinstance(result, PersonalLicense):
        kind, body = RESPONSE_PERSONAL, result.as_dict()
    elif isinstance(result, AnonymousLicense):
        kind, body = RESPONSE_ANONYMOUS, result.as_dict()
    elif isinstance(result, BaseException):
        kind, body = RESPONSE_ERROR, _encode_error(result)
    elif isinstance(result, dict):
        kind, body = RESPONSE_RECEIPT, result
    else:
        raise CodecError(f"not a service response: {type(result).__name__}")
    return codec.encode({"what": _RESPONSE_WHAT, "kind": kind, "body": body})


def decode_response(data: Buffer):
    """Inverse of :func:`encode_response`.

    Errors come back as exception *instances* (not raised): batch
    callers keep queue semantics, where each slot is a result or the
    exception that rejected it.
    """
    envelope = codec.decode(data)
    if not isinstance(envelope, dict) or envelope.get("what") != _RESPONSE_WHAT:
        raise CodecError("not a service response envelope")
    kind = envelope.get("kind")
    if "body" not in envelope:
        raise CodecError("service response envelope missing body")
    body = envelope["body"]
    try:
        if kind == RESPONSE_PERSONAL:
            return PersonalLicense.from_dict(body)
        if kind == RESPONSE_ANONYMOUS:
            return AnonymousLicense.from_dict(body)
        if kind == RESPONSE_RECEIPT:
            return body
        if kind == RESPONSE_ERROR:
            return _decode_error(body)
    except ReproError:
        raise
    except Exception as exc:
        raise CodecError(f"malformed {kind} response body: {exc!r}") from exc
    raise CodecError(f"unknown response kind {kind!r}")


def peek_response_outcome(data: Buffer) -> tuple[str, str | None]:
    """``(outcome, error_type)`` of an encoded response, cheaply.

    The pool's metrics path classifies every response it parks without
    reconstructing licences: ``("ok", None)`` for results,
    ``("error", <type name>)`` for error envelopes.  Never raises —
    an unclassifiable payload (which a worker will not produce, but a
    counter must not crash the collector over) is ``("unknown",
    None)``.
    """
    try:
        envelope = codec.decode(data)
        kind = envelope.get("kind")
        if kind == RESPONSE_ERROR:
            return "error", str(envelope["body"].get("type"))
        if kind in (RESPONSE_PERSONAL, RESPONSE_ANONYMOUS, RESPONSE_RECEIPT):
            return "ok", None
        return "unknown", None
    except Exception:
        return "unknown", None


# -- error marshalling -------------------------------------------------------


def encode_error(error: BaseException) -> dict:
    """An exception as a codec-friendly dict body.

    The response envelopes use this internally; the network control
    channel reuses it so read-surface failures (a revoked licence in a
    non-revocation proof, say) cross the socket with the same fidelity
    as desk rejections.
    """
    return _encode_error(error)


def decode_error(body: dict) -> ReproError:
    """Inverse of :func:`encode_error`; returns the exception *instance*.

    Strict on untrusted shapes: an error body whose advertised type
    does not match its fields (a ``DoubleSpendError`` without its coin
    id, say) decodes to :class:`~repro.errors.CodecError` instead of
    leaking the shape mismatch as a raw ``KeyError``.
    """
    try:
        return _decode_error(body)
    except ReproError:
        raise
    except Exception as exc:
        raise CodecError(f"malformed error body: {exc!r}") from exc


def _error_registry() -> dict[str, type]:
    """Every concrete exception type the desks can raise, by name."""
    from .. import errors as errors_module

    registry: dict[str, type] = {}
    for name in dir(errors_module):
        candidate = getattr(errors_module, name)
        if isinstance(candidate, type) and issubclass(candidate, ReproError):
            registry[name] = candidate
    return registry


_ERRORS = _error_registry()


def _encode_error(error: BaseException) -> dict:
    body: dict = {"type": type(error).__name__, "message": str(error)}
    if isinstance(error, DoubleSpendError):
        body["coin_id"] = error.coin_id
    if isinstance(error, DoubleRedemptionError):
        body["token_id"] = error.token_id
        evidence = getattr(error, "evidence", None)
        if evidence is not None:
            body["evidence"] = codec.encode(evidence.as_dict())
    if isinstance(error, RightsDenied):
        body["action"] = error.action
        body["reason"] = error.reason
    if isinstance(error, OverloadedError):
        body["retry_after_ms"] = error.retry_after_ms
    return body


def _decode_error(body: dict) -> ReproError:
    error_type = _ERRORS.get(body.get("type", ""))
    if error_type is DoubleSpendError:
        return DoubleSpendError(bytes(body["coin_id"]))
    if error_type is DoubleRedemptionError:
        error = DoubleRedemptionError(bytes(body["token_id"]))
        if "evidence" in body:
            error.evidence = MisuseEvidence.from_dict(
                codec.decode(bytes(body["evidence"]))
            )
        return error
    if error_type is RightsDenied:
        return RightsDenied(body["action"], body["reason"])
    if error_type is OverloadedError:
        return OverloadedError(
            body.get("message", ""),
            retry_after_ms=int(body.get("retry_after_ms", 100)),
        )
    if error_type is None:
        # Version skew: an unknown type still surfaces as a ReproError
        # carrying its original name, never a silent success.
        return ReproError(f"{body.get('type')}: {body.get('message')}")
    return error_type(body.get("message", ""))
