"""Batched redemption: provider.redeem_batch edge cases.

The queue semantics under test: every aggregate check (licence
signature screening, certificate screening, escrow-binding batch,
Schnorr envelope batch, the one-pass revocation screen) must accept
exactly what the per-item path accepts, and one bad request must never
poison the batch — the offender is isolated with the same exception the
single path would have raised.
"""

import dataclasses

import pytest

from repro import instrument
from repro.core.protocols.acquisition import accept_license, build_purchase_request
from repro.core.protocols.transfer import (
    accept_redeemed_license,
    build_redeem_request,
    exchange_for_anonymous,
)
from repro.crypto.schnorr import SchnorrSignature
from repro.errors import (
    AuthenticationError,
    DoubleRedemptionError,
    RevokedLicenseError,
)


@pytest.fixture()
def batch_deployment(fresh_deployment):
    return fresh_deployment(seed="redeem-batch")


def _redeem_queue(deployment, count, *, sender=None, receiver=None):
    """``count`` valid redeem requests (purchase → exchange → request)."""
    d = deployment
    sender = sender or d.add_user(f"rb-sender-{count}", balance=1000)
    receiver = receiver or d.add_user(f"rb-receiver-{count}", balance=1000)
    purchases = [
        build_purchase_request(sender, d.provider, d.issuer, d.bank, "song-1")
        for _ in range(count)
    ]
    requests = []
    for purchase, license_ in zip(purchases, d.provider.sell_batch(purchases)):
        assert not isinstance(license_, Exception), license_
        accept_license(sender, d.provider, purchase, license_)
        anonymous = exchange_for_anonymous(sender, d.provider, license_.license_id)
        requests.append(build_redeem_request(receiver, d.provider, d.issuer, anonymous))
    return receiver, requests


class TestRedeemBatch:
    def test_all_valid_requests_yield_licenses(self, batch_deployment):
        d = batch_deployment
        receiver, requests = _redeem_queue(d, 5)
        results = d.provider.redeem_batch(requests)
        assert len(results) == 5
        for request, license_ in zip(requests, results):
            assert not isinstance(license_, Exception), license_
            accept_redeemed_license(receiver, d.provider, request, license_)
        assert len(receiver.licenses) == 5

    def test_batch_cheaper_than_sequential_in_group_ops(self, fresh_deployment):
        d_batch = fresh_deployment(seed="rb-cost-a")
        d_seq = fresh_deployment(seed="rb-cost-b")
        _, requests = _redeem_queue(d_batch, 6)
        _, sequential = _redeem_queue(d_seq, 6)
        with instrument.measure() as batched:
            d_batch.provider.redeem_batch(requests)
        with instrument.measure() as one_by_one:
            for request in sequential:
                d_seq.provider.redeem(request)
        assert batched.get("modexp") < one_by_one.get("modexp")
        assert batched.get("schnorr.batch_verify") == 1
        assert batched.get("schnorr.batch_knowledge") == 1
        assert batched.get("rsa.batch_verify") >= 1

    def test_empty_batch(self, batch_deployment):
        assert batch_deployment.provider.redeem_batch([]) == []

    # -- replay -------------------------------------------------------------

    def test_replayed_nonce_rejected_once(self, batch_deployment):
        """The same RedeemRequest twice in one queue: the replay filter
        admits the first and rejects the second."""
        d = batch_deployment
        _, requests = _redeem_queue(d, 1)
        results = d.provider.redeem_batch([requests[0], requests[0]])
        assert not isinstance(results[0], Exception)
        assert isinstance(results[1], AuthenticationError)
        assert "nonce" in str(results[1])

    def test_rejected_request_does_not_burn_its_nonce(self, batch_deployment):
        """A request rejected for a tampered licence signature must be
        resubmittable verbatim once fixed — the batch path spends the
        nonce only after the licence/certificate checks pass, matching
        the single-item ordering."""
        d = batch_deployment
        _, requests = _redeem_queue(d, 2)
        good = requests[0]
        forged_license = dataclasses.replace(
            good.anonymous_license,
            signature=bytes(len(good.anonymous_license.signature)),
        )
        bad = dataclasses.replace(good, anonymous_license=forged_license)
        results = d.provider.redeem_batch([bad, requests[1]])
        assert isinstance(results[0], AuthenticationError)
        (retry,) = d.provider.redeem_batch([good])
        assert not isinstance(retry, Exception), retry

    def test_nonce_replayed_across_calls_rejected(self, batch_deployment):
        d = batch_deployment
        _, requests = _redeem_queue(d, 1)
        (first,) = d.provider.redeem_batch(requests)
        assert not isinstance(first, Exception)
        (second,) = d.provider.redeem_batch(requests)
        assert isinstance(second, AuthenticationError)

    # -- revocation ---------------------------------------------------------

    def test_revoked_license_inside_batch_isolated(self, batch_deployment):
        d = batch_deployment
        _, requests = _redeem_queue(d, 4)
        revoked_id = requests[2].anonymous_license.license_id
        d.provider.revocation_list.revoke(
            revoked_id, at=d.clock.now(), reason="ttp-order"
        )
        results = d.provider.redeem_batch(requests)
        assert isinstance(results[2], RevokedLicenseError)
        for index in (0, 1, 3):
            assert not isinstance(results[index], Exception), results[index]

    def test_single_redeem_rejects_revoked_license(self, batch_deployment):
        d = batch_deployment
        _, requests = _redeem_queue(d, 1)
        d.provider.revocation_list.revoke(
            requests[0].anonymous_license.license_id,
            at=d.clock.now(),
            reason="ttp-order",
        )
        with pytest.raises(RevokedLicenseError):
            d.provider.redeem(requests[0])

    # -- double redemption --------------------------------------------------

    def test_double_redeemed_token_inside_batch_isolated(self, batch_deployment):
        """The same bearer token presented twice in one queue: the first
        presentation wins, the second yields evidence, the rest of the
        batch is untouched."""
        d = batch_deployment
        receiver, requests = _redeem_queue(d, 3)
        duplicate = build_redeem_request(
            receiver, d.provider, d.issuer, requests[1].anonymous_license
        )
        results = d.provider.redeem_batch(requests + [duplicate])
        for index in range(3):
            assert not isinstance(results[index], Exception), results[index]
        assert isinstance(results[3], DoubleRedemptionError)
        evidence = results[3].evidence
        assert evidence.kind == "double-redemption"
        assert evidence.token_id == requests[1].anonymous_license.license_id

    def test_already_spent_token_in_batch_isolated(self, batch_deployment):
        d = batch_deployment
        receiver, requests = _redeem_queue(d, 2)
        first_pass = d.provider.redeem_batch([requests[0]])
        assert not isinstance(first_pass[0], Exception)
        replay = build_redeem_request(
            receiver, d.provider, d.issuer, requests[0].anonymous_license
        )
        results = d.provider.redeem_batch([replay, requests[1]])
        assert isinstance(results[0], DoubleRedemptionError)
        assert results[0].evidence is not None
        assert not isinstance(results[1], Exception)

    def test_double_redemption_evidence_opens_escrow(self, batch_deployment):
        """The evidence a batch rejection carries satisfies the TTP."""
        from repro.core.protocols.revocation import report_misuse

        d = batch_deployment
        receiver, requests = _redeem_queue(d, 1)
        d.provider.redeem_batch(requests)
        replay = build_redeem_request(
            receiver, d.provider, d.issuer, requests[0].anonymous_license
        )
        (rejected,) = d.provider.redeem_batch([replay])
        assert isinstance(rejected, DoubleRedemptionError)
        result = report_misuse(d.provider, d.issuer, rejected.evidence)
        assert result.offender_user_id == receiver.user_id

    # -- signature families -------------------------------------------------

    def test_forged_envelope_signature_isolated(self, batch_deployment):
        d = batch_deployment
        _, requests = _redeem_queue(d, 4)
        bad = requests[1]
        requests[1] = dataclasses.replace(
            bad,
            signature=SchnorrSignature(
                challenge=bad.signature.challenge,
                response=(bad.signature.response + 1) % d.group.q,
                commitment=bad.signature.commitment,
            ),
        )
        results = d.provider.redeem_batch(requests)
        assert isinstance(results[1], AuthenticationError)
        for index in (0, 2, 3):
            assert not isinstance(results[index], Exception), results[index]

    def test_commitment_less_legacy_signature_still_accepted(self, batch_deployment):
        """A request signed without the carried commitment R cannot join
        the aggregated check — batch_verify falls back to scalar
        verification for it, and it succeeds alongside batchable ones."""
        d = batch_deployment
        _, requests = _redeem_queue(d, 3)
        legacy = requests[1]
        requests[1] = dataclasses.replace(
            legacy,
            signature=SchnorrSignature(
                challenge=legacy.signature.challenge,
                response=legacy.signature.response,
                commitment=None,
            ),
        )
        results = d.provider.redeem_batch(requests)
        for result in results:
            assert not isinstance(result, Exception), result

    def test_tampered_anonymous_license_isolated(self, batch_deployment):
        d = batch_deployment
        _, requests = _redeem_queue(d, 3)
        victim = requests[0]
        forged_license = dataclasses.replace(
            victim.anonymous_license,
            signature=bytes(len(victim.anonymous_license.signature)),
        )
        requests[0] = dataclasses.replace(victim, anonymous_license=forged_license)
        results = d.provider.redeem_batch(requests)
        assert isinstance(results[0], AuthenticationError)
        assert not isinstance(results[1], Exception)
        assert not isinstance(results[2], Exception)

    def test_forged_certificate_isolated(self, batch_deployment):
        d = batch_deployment
        _, requests = _redeem_queue(d, 3)
        victim = requests[2]
        forged_cert = dataclasses.replace(
            victim.certificate,
            signature=bytes(len(victim.certificate.signature)),
        )
        bad = dataclasses.replace(victim, certificate=forged_cert)
        # Re-sign under the original pseudonym so only the certificate
        # is at fault (the envelope signature stays valid).
        requests[2] = bad
        results = d.provider.redeem_batch(requests)
        assert isinstance(results[2], AuthenticationError)
        assert not isinstance(results[0], Exception)
        assert not isinstance(results[1], Exception)

    # -- per-item screening fallbacks ---------------------------------------

    def test_screening_fallbacks_reject_only_the_forgeries(self, fresh_deployment):
        """The queue carries one forged licence signature (stage-1 arm)
        and one forged Schnorr envelope (stage-4 arm), so both per-item
        fallback loops run; only the two forgeries are rejected."""
        d = fresh_deployment(seed="rb-screen-fallbacks")
        receiver, requests = _redeem_queue(d, 4)
        forged_license = dataclasses.replace(
            requests[1].anonymous_license,
            signature=bytes(len(requests[1].anonymous_license.signature)),
        )
        requests[1] = dataclasses.replace(
            requests[1], anonymous_license=forged_license
        )
        requests[2] = dataclasses.replace(
            requests[2],
            signature=SchnorrSignature(
                challenge=requests[2].signature.challenge,
                response=(requests[2].signature.response + 1) % d.group.q,
                commitment=requests[2].signature.commitment,
            ),
        )
        results = d.provider.redeem_batch(requests)
        assert isinstance(results[1], AuthenticationError)
        assert isinstance(results[2], AuthenticationError)
        assert not isinstance(results[0], Exception)
        assert not isinstance(results[3], Exception)
