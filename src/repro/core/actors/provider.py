"""The content provider: anonymous sales, transfers, revocation.

The provider enforces DRM while learning as little as the paper
allows.  Its whole view of the world is pseudonyms, coins and token
ids — every handler here verifies cryptographic statements instead of
identities:

- :meth:`ContentProvider.sell` — anonymous purchase: verify the blind-
  issued pseudonym certificate, the request signature, and the coins;
  issue a personalized licence wrapping ``K_C`` to the pseudonym.

- :meth:`ContentProvider.exchange` — the transfer protocol's first
  half: the holder gives up a personalized licence; it goes on the
  revocation list and an **anonymous licence** (fresh unique token id,
  no holder) comes back.

- :meth:`ContentProvider.redeem` — the second half: a fresh pseudonym
  presents the anonymous licence; the spent-token store admits each
  token exactly once, and the second presentation of a token yields
  :class:`~repro.errors.DoubleRedemptionError` carrying verifiable
  :class:`~repro.core.messages.MisuseEvidence` for the TTP.

The provider is modelled **honest-but-curious**: every event it can
see lands in its audit log with timestamps, and the analysis package
later mines that log exactly like a curious operator would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ... import codec
from ...clock import Clock
from ...crypto.hashes import sha256
from ...crypto.rand import RandomSource
from ...crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_rsa_key
from ...errors import (
    AuthenticationError,
    DoubleRedemptionError,
    PaymentError,
    ProtocolError,
    RevokedLicenseError,
    UnknownContentError,
)
from ...rel.serializer import rights_to_text
from ...storage import licenses as license_store
from ...storage.audit import AuditLog
from ...storage.contents import CatalogEntry, ContentStore
from ...storage.engine import Database
from ...storage.licenses import LicenseStore
from ...storage.revocation import RevocationList, SignedSnapshot, RevocationEntry
from ...storage.spent_tokens import SpentTokenStore
from ..content import ContentPackage, pack_content
from ..licenses import (
    LICENSE_ID_SIZE,
    AnonymousLicense,
    PersonalLicense,
    kem_context,
    sign_anonymous_license,
    sign_personal_license,
)
from ..messages import (
    ExchangeRequest,
    MisuseEvidence,
    PurchaseRequest,
    RedeemRequest,
    redemption_transcript,
)

#: Tolerated clock skew between a request timestamp and the provider clock.
REQUEST_FRESHNESS_WINDOW = 24 * 3600


@dataclass
class ProviderStores:
    """The provider's six stores, bundled so deployments can swap them.

    The default bundle (:func:`build_provider_stores`) puts every store
    in one in-process database; the service layer substitutes sharded
    views over per-shard files so many worker processes can run the
    same :class:`ContentProvider` code against shared state.
    """

    contents: ContentStore
    licenses: LicenseStore
    revocations: RevocationList
    spent_tokens: SpentTokenStore
    request_nonces: SpentTokenStore
    audit: AuditLog


def build_provider_stores(database: Database) -> ProviderStores:
    """The classic single-database store bundle."""
    return ProviderStores(
        contents=ContentStore(database),
        licenses=LicenseStore(database),
        revocations=RevocationList(database),
        spent_tokens=SpentTokenStore(database, "anon-license"),
        request_nonces=SpentTokenStore(database, "request-nonce"),
        audit=AuditLog(database),
    )


class ContentProvider:
    """Catalog, licence issuance and the transfer machinery."""

    def __init__(
        self,
        *,
        rng: RandomSource,
        clock: Clock,
        issuer_certificate_key: RsaPublicKey,
        bank,
        db: Database | None = None,
        stores: ProviderStores | None = None,
        license_key: RsaPrivateKey | None = None,
        license_key_bits: int = 1024,
        name: str = "content-provider",
        bank_account: str | None = None,
        deterministic_issuance: bool = False,
    ):
        self.name = name
        self._rng = rng
        self._clock = clock
        self._issuer_key = issuer_certificate_key
        self._bank = bank
        if stores is None:
            stores = build_provider_stores(db or Database())
        self._contents = stores.contents
        self._licenses = stores.licenses
        self._revocations = stores.revocations
        self._spent_tokens = stores.spent_tokens
        self._request_nonces = stores.request_nonces
        self._audit = stores.audit
        #: When set, every issued licence's identifier, KEM ephemeral
        #: and timestamp derive from the *request* (rng forked from the
        #: signed payload digest, timestamp from the signed ``at``)
        #: instead of from the provider's mutable rng/clock state.  The
        #: output then depends only on (provider keys, request bytes) —
        #: which is what lets N worker processes, in any interleaving,
        #: produce byte-identical licences to the in-process desk.
        self.deterministic_issuance = deterministic_issuance
        #: Optional batch-pipeline timing hook (the service workers
        #: install one per batch): a callable receiving one
        #: ``(op, stage, start_monotonic, duration, n)`` tuple per
        #: pipeline stage.  ``None`` — the default — costs one
        #: attribute read per stage and nothing else; the provider
        #: itself never records timings.
        self.stage_hook = None
        if license_key is None:
            # Three-prime key (RFC 8017 multi-prime): licence signing is
            # the one RSA private operation on the sell/redeem hot path
            # that no batch check amortizes, and the narrower CRT primes
            # make it ~2x cheaper at the same modulus size.
            license_key = generate_rsa_key(
                license_key_bits, rng=rng.fork("provider-license-key"), prime_count=3
            )
        self._license_key = license_key
        self._bank_account = bank_account or f"{name}-account"
        if bank is not None:
            bank.open_account(self._bank_account)

    # -- public surface ----------------------------------------------------

    @property
    def license_key(self) -> RsaPublicKey:
        """Licence/LRL-snapshot verification key (devices pin this)."""
        return self._license_key.public_key

    @property
    def audit_log(self) -> AuditLog:
        return self._audit

    @property
    def license_register(self) -> LicenseStore:
        return self._licenses

    @property
    def revocation_list(self) -> RevocationList:
        return self._revocations

    # -- catalog ------------------------------------------------------------

    def publish(
        self,
        content_id: str,
        payload: bytes,
        *,
        title: str = "",
        price: int = 1,
        media_type: str = "application/octet-stream",
        rights_template: str | None = None,
    ) -> ContentPackage:
        """Package and list a content item (price in credits).

        ``rights_template`` is the rights expression every buyer of this
        item receives (e.g. a rental:
        ``"play[count<=3, before=...]"``); default is unlimited
        play/display plus one transfer.
        """
        from ...storage.contents import DEFAULT_RIGHTS_TEMPLATE

        package, content_key = pack_content(
            content_id,
            payload,
            title=title,
            media_type=media_type,
            rng=self._rng,
        )
        self._contents.add(
            content_id,
            title=title,
            price_cents=price,
            added_at=self._clock.now(),
            package=package.to_bytes(),
            content_key=content_key,
            rights_template=rights_template or DEFAULT_RIGHTS_TEMPLATE,
        )
        return package

    def catalog(self) -> list[CatalogEntry]:
        return self._contents.catalog()

    def price(self, content_id: str) -> int:
        return self._contents.price(content_id)

    def download(self, content_id: str) -> ContentPackage:
        """Anyone may download the encrypted package — no authentication,
        which is itself part of the privacy story."""
        return ContentPackage.from_bytes(self._contents.package(content_id))

    # -- purchase ------------------------------------------------------------

    def sell(self, request: PurchaseRequest) -> PersonalLicense:
        """Anonymous purchase handler.

        Raises :class:`~repro.errors.AuthenticationError`,
        :class:`~repro.errors.PaymentError`,
        :class:`~repro.errors.DoubleSpendError` or
        :class:`~repro.errors.UnknownContentError` as appropriate; on
        success returns the signed personalized licence.
        """
        self._presell_checks(request)
        return self._finalize_sale(request)

    def _mark_stage(self, op: str, stage: str, start: float, n: int) -> None:
        """Report one batch-pipeline stage to :attr:`stage_hook`."""
        hook = self.stage_hook
        if hook is not None:
            hook((op, stage, start, time.monotonic() - start, n))

    def _screen_items(self, item_check, items: list) -> list:
        """Run a pure per-item verification over ``items``.

        Returns a list aligned with ``items``: ``None`` where the check
        passed, the raised exception where it failed.
        """

        def _arm(item):
            try:
                item_check(item)
            except Exception as exc:
                return exc
            return None

        return [_arm(item) for item in items]

    def sell_batch(self, requests: list[PurchaseRequest]) -> list:
        """Validate and fulfil a queue of purchase requests together.

        The Schnorr request signatures of the whole queue are verified
        in one batch
        (:func:`~repro.crypto.schnorr.batch_verify` — small-random-
        exponent aggregation, ~one full-size exponentiation instead of
        two per request) and coin deposits are batched per request, so
        a loaded provider validates a burst of purchases far cheaper
        than one at a time.

        Queue semantics: one bad request must not poison the batch.
        Returns a list aligned with ``requests`` where each entry is
        either the issued :class:`~repro.core.licenses.PersonalLicense`
        or the exception that rejected that request.
        """
        from ...crypto.schnorr import batch_verify

        requests = list(requests)
        results: list = [None] * len(requests)
        pending: list[int] = []
        stage_start = time.monotonic()
        for index, request in enumerate(requests):
            try:
                self._presell_checks(request, check_signature=False)
            except Exception as exc:
                results[index] = exc
            else:
                pending.append(index)
        self._mark_stage("sell", "precheck", stage_start, len(requests))

        def _signature_item(request: PurchaseRequest):
            return (
                request.certificate.pseudonym.signing_key,
                request.signing_payload(),
                request.signature,
            )

        stage_start = time.monotonic()
        try:
            batch_verify(
                [_signature_item(requests[index]) for index in pending],
                rng=self._rng,
            )
        except Exception:
            # At least one bad signature: re-check individually so only
            # the offenders are rejected.
            def _check_signature(request: PurchaseRequest) -> None:
                key, payload, signature = _signature_item(request)
                try:
                    key.verify(payload, signature)
                except Exception as exc:
                    raise AuthenticationError(
                        f"request signature invalid: {exc}"
                    ) from exc

            survivors: list[int] = []
            outcomes = self._screen_items(
                _check_signature, [requests[index] for index in pending]
            )
            for index, outcome in zip(pending, outcomes):
                if outcome is None:
                    survivors.append(index)
                else:
                    results[index] = outcome
            pending = survivors
        self._mark_stage("sell", "schnorr", stage_start, len(pending))

        stage_start = time.monotonic()
        for index in pending:
            try:
                results[index] = self._finalize_sale(requests[index])
            except Exception as exc:
                results[index] = exc
        self._mark_stage("sell", "finalize", stage_start, len(pending))
        return results

    def _presell_checks(
        self, request: PurchaseRequest, *, check_signature: bool = True
    ) -> None:
        """Everything `sell` validates before money moves."""
        if not self._contents.exists(request.content_id):
            raise UnknownContentError(f"content {request.content_id!r} not in catalog")
        self._verify_request_envelope(
            certificate=request.certificate,
            signature=request.signature,
            payload=request.signing_payload(),
            nonce=request.nonce,
            at=request.at,
            check_signature=check_signature,
        )

    def _request_entropy(self, request) -> tuple[RandomSource, int]:
        """The (rng, timestamp) pair issuance draws from for ``request``.

        Default: the provider's own rng stream and clock.  Under
        :attr:`deterministic_issuance` both derive from the request —
        the rng forked by the digest of the signed payload (unique per
        request: the payload binds the nonce) and the timestamp from
        the signed ``at`` — so the issued licence is a pure function of
        the request and the provider's keys, independent of queue
        order, batch boundaries, or which worker process handles it.
        """
        if not self.deterministic_issuance:
            return self._rng, self._clock.now()
        digest = sha256(request.signing_payload())
        return self._rng.fork(f"request:{digest.hex()}"), request.at

    def _finalize_sale(self, request: PurchaseRequest) -> PersonalLicense:
        """Collect payment and issue the licence (after validation)."""
        self._collect_payment(request)
        rights = self._default_rights(request.content_id)
        rng, now = self._request_entropy(request)
        license_ = self._issue_personal(
            content_id=request.content_id,
            rights=rights,
            pseudonym=request.certificate.pseudonym,
            rng=rng,
            now=now,
        )
        self._audit.append(
            at=now,
            actor=self.name,
            event="license_issued",
            payload={
                "license": license_.license_id,
                "content": request.content_id,
                "pseudonym": request.certificate.fingerprint,
            },
        )
        return license_

    def _default_rights(self, content_id: str):
        """The rights this content is sold with (per-content template)."""
        from ...rel.parser import parse_rights

        return parse_rights(self._contents.rights_template(content_id))

    def _collect_payment(self, request: PurchaseRequest) -> None:
        price = self._contents.price(request.content_id)
        total = sum(coin.value for coin in request.coins)
        if total < price:
            raise PaymentError(f"payment {total} below price {price}")
        # The batch desk verifies everything before depositing anything
        # (signatures screened in one RSA operation per denomination),
        # so a failed sale cannot strand a coin half-deposited.
        self._bank.deposit_batch(self._bank_account, list(request.coins))

    # -- exchange: personalized → anonymous -------------------------------------

    def exchange(self, request: ExchangeRequest) -> AnonymousLicense:
        """Trade an active personalized licence for an anonymous one.

        The atomic step is the ACTIVE→EXCHANGED status transition (a
        compare-and-swap on the licence's row): it happens before the
        bearer licence is signed, so the holder can never end up with
        both usable — not even when two workers race the request.  The
        follow-up writes (LRL entry, bearer registration, audit) are
        separate transactions; a crash between the CAS and the
        issuance leaves an EXCHANGED licence with no successor, which
        an operator reconciles from the register (every EXCHANGED
        personal licence must have an anonymous sibling) — the
        cross-shard sequencer on the ROADMAP would close that window.
        """
        record = self._licenses.get(request.license_id)
        if record is None:
            raise ProtocolError("unknown licence")
        if record.kind != license_store.KIND_PERSONAL:
            raise ProtocolError(f"cannot exchange a {record.kind} licence")
        if record.status != license_store.STATUS_ACTIVE:
            raise RevokedLicenseError(f"licence is {record.status}")
        old_license = PersonalLicense.from_dict(codec.decode(record.blob))
        if not old_license.rights.transferable:
            raise ProtocolError("licence rights do not include transfer")
        self._check_nonce(old_license.holder_fingerprint, request.nonce)
        self._check_freshness(request.at)
        try:
            old_license.pseudonym.signing_key.verify(
                request.signing_payload(), request.signature
            )
        except Exception as exc:
            raise AuthenticationError(f"exchange signature invalid: {exc}") from exc

        outgoing_rights = old_license.rights
        if request.restrict_to is not None:
            # Monotone restriction: the giver may narrow, never widen —
            # naming an action the licence does not grant is an error,
            # not a silent drop (explicit beats implicit here: a client
            # that *thinks* it is passing on 'copy' must find out).
            held_actions = {p.action for p in old_license.rights.permissions}
            ungranted = set(request.restrict_to) - held_actions
            if ungranted:
                raise ProtocolError(
                    f"restriction names ungranted actions: {sorted(ungranted)}"
                )
            outgoing_rights = old_license.rights.restricted_to(request.restrict_to)
            if not outgoing_rights.is_subset_of(old_license.rights):
                raise ProtocolError("restriction would widen rights")

        rng, now = self._request_entropy(request)
        # The exactly-once gate: a licence leaves ACTIVE atomically,
        # *before* any bearer licence is minted.  Two workers racing
        # exchange requests for the same licence serialize on this row
        # at its home shard, so exactly one of them ever signs an
        # anonymous licence — the exchange counterpart of the spent-
        # token gate on redemption.
        if not self._licenses.transition(
            request.license_id,
            from_status=license_store.STATUS_ACTIVE,
            to_status=license_store.STATUS_EXCHANGED,
        ):
            current = self._licenses.get(request.license_id)
            status = current.status if current is not None else "unknown"
            raise RevokedLicenseError(f"licence is {status}")
        try:
            # Write order matters for the compensation below: the
            # bearer registration comes LAST, so a failure anywhere in
            # this block implies no redeemable bearer token exists and
            # the CAS can be handed back safely.
            token_id = rng.random_bytes(LICENSE_ID_SIZE)
            anonymous = sign_anonymous_license(
                self._license_key,
                license_id=token_id,
                content_id=old_license.content_id,
                rights=outgoing_rights,
                issued_at=now,
            )
            self._revocations.revoke(request.license_id, at=now, reason="exchanged")
            self._audit.append(
                at=now,
                actor=self.name,
                event="license_exchanged",
                payload={
                    "old_license": request.license_id,
                    "token": token_id,
                    "content": old_license.content_id,
                },
            )
            self._licenses.insert(
                token_id,
                kind=license_store.KIND_ANONYMOUS,
                content_id=old_license.content_id,
                holder=None,
                rights_text=rights_to_text(outgoing_rights),
                issued_at=now,
                blob=codec.encode(anonymous.as_dict()),
            )
        except BaseException:
            # No bearer token was registered (it is the last write),
            # so handing the status back is safe — a transient failure
            # (a busy shard, say) must not burn the holder's licence.
            # If the LRL entry already landed, the licence comes back
            # ACTIVE but revoked-for-playback; retrying the exchange
            # heals that (revoke is idempotent), and an audit entry
            # whose token never reached the register records the
            # aborted attempt.  Best effort: if the compensation
            # itself fails the licence stays EXCHANGED for operator
            # reconciliation, and the original error still propagates.
            try:
                self._licenses.transition(
                    request.license_id,
                    from_status=license_store.STATUS_EXCHANGED,
                    to_status=license_store.STATUS_ACTIVE,
                )
            except Exception:
                pass  # keep the original failure, not the compensation's
            raise
        return anonymous

    # -- redemption: anonymous → personalized --------------------------------------

    def redeem(self, request: RedeemRequest) -> PersonalLicense:
        """Personalize an anonymous licence for a (new) pseudonym.

        Exactly-once: the token id transitions to *spent* atomically.
        A second presentation raises
        :class:`~repro.errors.DoubleRedemptionError` whose ``evidence``
        attribute carries both transcripts for the TTP.
        """
        self._preredeem_checks(request)
        if self._revocations.is_revoked(request.anonymous_license.license_id):
            raise RevokedLicenseError("anonymous licence is revoked")
        return self._finalize_redemption(request)

    def redeem_batch(self, requests: list[RedeemRequest]) -> list:
        """Validate and personalize a queue of bearer licences together.

        The redemption desk under load: every signature family in the
        queue is screened in one aggregated check instead of one chain
        per request —

        - the provider's own licence signatures via PKCS#1 screening
          (:func:`~repro.crypto.rsa.batch_verify_pkcs1`, one RSA public
          operation);
        - the issuer-blind-signed pseudonym certificates plus their
          escrow binding proofs
          (:func:`~repro.core.certificates.batch_verify_certificates`);
        - the Schnorr request envelopes
          (:func:`~repro.crypto.schnorr.batch_verify`);
        - non-revocation with one revocation-list pass
          (:meth:`~repro.storage.revocation.RevocationList.revoked_subset`).

        Queue semantics match :meth:`sell_batch`: one bad request must
        not poison the batch.  Whenever an aggregate check fails, the
        stage re-verifies its members individually so only the
        offenders are rejected.  Returns a list aligned with
        ``requests`` where each entry is either the issued
        :class:`~repro.core.licenses.PersonalLicense` or the exception
        that rejected that request (a
        :class:`~repro.errors.DoubleRedemptionError` entry carries its
        ``evidence`` for the TTP).
        """
        from ...crypto.rsa import batch_verify_pkcs1
        from ...crypto.schnorr import batch_verify
        from ..certificates import batch_verify_certificates

        requests = list(requests)
        results: list = [None] * len(requests)
        pending: list[int] = []
        stage_start = time.monotonic()
        for index, request in enumerate(requests):
            try:
                self._preredeem_checks(
                    request,
                    check_license_signature=False,
                    check_certificate=False,
                    check_nonce=False,
                    check_signature=False,
                )
            except Exception as exc:
                results[index] = exc
            else:
                pending.append(index)
        self._mark_stage("redeem", "precheck", stage_start, len(requests))

        def _screen(indices: list[int], batch_check, item_check) -> list[int]:
            """Run the aggregate check; on failure isolate offenders."""
            if not indices:
                return indices
            try:
                batch_check([requests[index] for index in indices])
            except Exception:
                survivors: list[int] = []
                outcomes = self._screen_items(
                    item_check, [requests[index] for index in indices]
                )
                for index, outcome in zip(indices, outcomes):
                    if outcome is None:
                        survivors.append(index)
                    else:
                        results[index] = outcome
                return survivors
            return indices

        # Stage 1: the provider's own signatures over the bearer
        # licences — one screening op for the whole queue.
        def _check_own_signature(request: RedeemRequest) -> None:
            try:
                request.anonymous_license.verify(self.license_key)
            except Exception as exc:
                raise AuthenticationError(
                    f"anonymous licence invalid: {exc}"
                ) from exc

        stage_start = time.monotonic()
        pending = _screen(
            pending,
            lambda batch: batch_verify_pkcs1(
                [
                    (item.anonymous_license.payload(), item.anonymous_license.signature)
                    for item in batch
                ],
                self.license_key,
            ),
            _check_own_signature,
        )
        self._mark_stage("redeem", "screen_license", stage_start, len(pending))

        # Stage 2: one revocation-list pass for the whole queue.
        stage_start = time.monotonic()
        revoked = self._revocations.revoked_subset(
            requests[index].anonymous_license.license_id for index in pending
        )
        if revoked:
            survivors = []
            for index in pending:
                if requests[index].anonymous_license.license_id in revoked:
                    results[index] = RevokedLicenseError(
                        "anonymous licence is revoked"
                    )
                else:
                    survivors.append(index)
            pending = survivors
        self._mark_stage("redeem", "revocation", stage_start, len(pending))

        # Stage 3: blind-signature screening + aggregated escrow
        # binding proofs for the pseudonym certificates.
        def _check_certificate(request: RedeemRequest) -> None:
            try:
                request.certificate.verify(self._issuer_key)
            except Exception as exc:
                raise AuthenticationError(
                    f"pseudonym certificate invalid: {exc}"
                ) from exc

        stage_start = time.monotonic()
        pending = _screen(
            pending,
            lambda batch: batch_verify_certificates(
                [item.certificate for item in batch], self._issuer_key, rng=self._rng
            ),
            _check_certificate,
        )
        self._mark_stage("redeem", "certificates", stage_start, len(pending))

        # One-shot request nonces, spent only now that the licence and
        # certificate have checked out — the single-item path orders it
        # the same way, so a request rejected for a provider-side
        # reason (stale issuer key, tampered licence) never burns its
        # nonce and can be resubmitted verbatim.
        stage_start = time.monotonic()
        survivors = []
        for index in pending:
            request = requests[index]
            try:
                self._check_nonce(request.certificate.fingerprint, request.nonce)
            except Exception as exc:
                results[index] = exc
            else:
                survivors.append(index)
        pending = survivors
        self._mark_stage("redeem", "nonces", stage_start, len(pending))

        # Stage 4: the Schnorr request envelopes, folded into one
        # random linear combination (legacy commitment-less signatures
        # fall back to scalar verification inside batch_verify).
        def _check_envelope(request: RedeemRequest) -> None:
            try:
                request.certificate.pseudonym.signing_key.verify(
                    request.signing_payload(), request.signature
                )
            except Exception as exc:
                raise AuthenticationError(
                    f"request signature invalid: {exc}"
                ) from exc

        stage_start = time.monotonic()
        pending = _screen(
            pending,
            lambda batch: batch_verify(
                [
                    (
                        item.certificate.pseudonym.signing_key,
                        item.signing_payload(),
                        item.signature,
                    )
                    for item in batch
                ],
                rng=self._rng,
            ),
            _check_envelope,
        )
        self._mark_stage("redeem", "schnorr", stage_start, len(pending))

        # Stage 5: spend each token and issue the personalized licences
        # (per-item: the spent store is the atomic exactly-once gate and
        # every licence wraps the key to a different pseudonym).
        stage_start = time.monotonic()
        for index in pending:
            try:
                results[index] = self._finalize_redemption(requests[index])
            except Exception as exc:
                results[index] = exc
        self._mark_stage("redeem", "finalize", stage_start, len(pending))
        return results

    def _preredeem_checks(
        self,
        request: RedeemRequest,
        *,
        check_license_signature: bool = True,
        check_certificate: bool = True,
        check_nonce: bool = True,
        check_signature: bool = True,
    ) -> None:
        """Everything `redeem` validates before any state changes.

        The ``check_*`` flags let :meth:`redeem_batch` skip the three
        signature families it verifies in aggregate, and defer the
        nonce spend until after those aggregates pass.
        """
        anonymous = request.anonymous_license
        if check_license_signature:
            try:
                anonymous.verify(self.license_key)
            except Exception as exc:
                raise AuthenticationError(f"anonymous licence invalid: {exc}") from exc
        record = self._licenses.get(anonymous.license_id)
        if record is None or record.kind != license_store.KIND_ANONYMOUS:
            raise ProtocolError("anonymous licence not on register")
        self._verify_request_envelope(
            certificate=request.certificate,
            signature=request.signature,
            payload=request.signing_payload(),
            nonce=request.nonce,
            at=request.at,
            check_certificate=check_certificate,
            check_nonce=check_nonce,
            check_signature=check_signature,
        )

    def _finalize_redemption(self, request: RedeemRequest) -> PersonalLicense:
        """Spend the token and issue the licence (after validation)."""
        anonymous = request.anonymous_license
        rng, now = self._request_entropy(request)
        transcript = redemption_transcript(
            request.certificate, request.signature, request.nonce, request.at
        )
        previous = self._spent_tokens.try_spend(
            anonymous.license_id, at=now, transcript=transcript
        )
        if previous is not None:
            evidence = MisuseEvidence(
                kind="double-redemption",
                token_id=anonymous.license_id,
                content_id=anonymous.content_id,
                first_transcript=previous.transcript,
                second_transcript=transcript,
            )
            self._audit.append(
                at=now,
                actor=self.name,
                event="double_redemption_detected",
                payload={"token": anonymous.license_id},
            )
            error = DoubleRedemptionError(anonymous.license_id)
            error.evidence = evidence
            raise error

        license_ = self._issue_personal(
            content_id=anonymous.content_id,
            rights=anonymous.rights,
            pseudonym=request.certificate.pseudonym,
            rng=rng,
            now=now,
        )
        self._licenses.set_status(anonymous.license_id, license_store.STATUS_REDEEMED)
        self._audit.append(
            at=now,
            actor=self.name,
            event="license_redeemed",
            payload={
                "token": anonymous.license_id,
                "license": license_.license_id,
                "content": anonymous.content_id,
                "pseudonym": request.certificate.fingerprint,
            },
        )
        return license_

    # -- revocation distribution ----------------------------------------------------

    def revocation_sync(
        self, cursor: int = 0
    ) -> tuple[list[RevocationEntry], SignedSnapshot, int]:
        """Delta entries, a signed snapshot and the advanced cursor.

        For the single-store LRL the cursor *is* the list version — an
        exact indexed watermark already — so the device hands back
        whatever it last received (``0`` = everything).  The sharded
        service surface returns a per-shard tuple in the same slot; the
        device treats the cursor as opaque either way.
        """
        entries = self._revocations.entries_since(int(cursor))
        snapshot = self._revocations.snapshot(self._license_key)
        return entries, snapshot, snapshot.version

    def prove_not_revoked(self, license_id: bytes):
        """Signed snapshot plus a Merkle non-inclusion proof.

        Lets a holder convince an *offline* third party (a second-hand
        buyer, an arbiter) that a licence was not revoked as of the
        snapshot — without that party trusting the provider's word or
        downloading the whole list.  Returns ``(snapshot, proof)``;
        verify with
        :func:`repro.storage.merkle.verify_non_inclusion` against the
        snapshot's signed root.  Raises
        :class:`~repro.errors.RevokedLicenseError` if the licence *is*
        on the list.
        """
        if self._revocations.is_revoked(license_id):
            raise RevokedLicenseError(
                f"licence {license_id.hex()[:16]} is revoked"
            )
        snapshot = self._revocations.snapshot(self._license_key)
        proof = self._revocations.merkle_tree().prove_non_inclusion(license_id)
        return snapshot, proof

    # -- internals ----------------------------------------------------------

    def _issue_personal(
        self,
        *,
        content_id: str,
        rights,
        pseudonym,
        rng: RandomSource | None = None,
        now: int | None = None,
    ) -> PersonalLicense:
        rng = rng if rng is not None else self._rng
        now = now if now is not None else self._clock.now()
        license_id = rng.random_bytes(LICENSE_ID_SIZE)
        content_key = self._contents.content_key(content_id)
        wrapped = pseudonym.kem_key.kem_wrap(
            content_key,
            context=kem_context(license_id, content_id),
            rng=rng,
        )
        license_ = sign_personal_license(
            self._license_key,
            license_id=license_id,
            content_id=content_id,
            rights=rights,
            pseudonym=pseudonym,
            wrapped_key=wrapped,
            issued_at=now,
        )
        self._licenses.insert(
            license_id,
            kind=license_store.KIND_PERSONAL,
            content_id=content_id,
            holder=pseudonym.fingerprint,
            rights_text=rights_to_text(rights),
            issued_at=now,
            blob=codec.encode(license_.as_dict()),
        )
        return license_

    def _verify_request_envelope(
        self,
        *,
        certificate,
        signature,
        payload: bytes,
        nonce: bytes,
        at: int,
        check_certificate: bool = True,
        check_nonce: bool = True,
        check_signature: bool = True,
    ) -> None:
        if check_certificate:
            # The batch path screens the whole queue's certificates in
            # one aggregated check instead.
            try:
                certificate.verify(self._issuer_key)
            except Exception as exc:
                raise AuthenticationError(
                    f"pseudonym certificate invalid: {exc}"
                ) from exc
        self._check_freshness(at)
        if check_nonce:
            # The batch path spends nonces after its aggregate licence
            # and certificate checks pass, matching this ordering.
            self._check_nonce(certificate.fingerprint, nonce)
        if not check_signature:
            # Caller verifies the Schnorr signature itself (the batch
            # path folds a whole queue into one aggregated check).
            return
        try:
            certificate.pseudonym.signing_key.verify(payload, signature)
        except Exception as exc:
            raise AuthenticationError(f"request signature invalid: {exc}") from exc

    def _check_freshness(self, at: int) -> None:
        if abs(at - self._clock.now()) > REQUEST_FRESHNESS_WINDOW:
            raise AuthenticationError("request timestamp outside freshness window")

    def _check_nonce(self, scope: bytes, nonce: bytes) -> None:
        """One-shot request nonces (replay filter), scoped per pseudonym."""
        previous = self._request_nonces.try_spend(
            scope + nonce, at=self._clock.now()
        )
        if previous is not None:
            raise AuthenticationError("request nonce replayed")
