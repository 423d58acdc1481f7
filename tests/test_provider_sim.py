"""CryptoProvider accounting, SimClock, NetworkLink, CostModel, profiles."""

import math

import pytest

from repro.crypto import esign, rsa, stream
from repro.crypto.provider import CryptoProvider
from repro.errors import CryptoError, IntegrityError
from repro.sim.clock import SimClock
from repro.sim.costmodel import (COMPUTE, CRYPTO, NETWORK, OTHER,
                                 CostBreakdown, CostModel)
from repro.sim.network import LAN, PAPER_DSL, NetworkLink, kbits_per_sec
from repro.sim.profiles import FREE, PAPER_2008, PAPER_2008_LAN, dsl_profile


@pytest.fixture(scope="module")
def rsa_pair():
    return rsa.generate_keypair(512)


@pytest.fixture(scope="module")
def esign_pair():
    return esign.generate_keypair(prime_bits=96)


class TestProvider:
    def test_engines_interoperate_with_themselves(self):
        """The provider's one cipher is the stream module's seal: a seal
        from one provider opens under another and under the module, and
        the module's seal opens under the provider."""
        key = b"k" * 16
        sealed = CryptoProvider().sym_encrypt(key, b"payload")
        assert CryptoProvider().sym_decrypt(key, sealed) == b"payload"
        assert stream.open_sealed(key, sealed) == b"payload"
        assert CryptoProvider().sym_decrypt(
            key, stream.seal(key, b"payload")) == b"payload"

    def test_seal_detects_tamper(self):
        p = CryptoProvider()
        key = b"k" * 16
        sealed = bytearray(p.sym_encrypt(key, b"payload"))
        sealed[10] ^= 1
        with pytest.raises(IntegrityError):
            p.sym_decrypt(key, bytes(sealed))

    def test_counters(self, rsa_pair, esign_pair):
        p = CryptoProvider()
        p.sym_encrypt(b"k" * 16, b"x" * 100)
        p.sym_decrypt(b"k" * 16, p.sym_encrypt(b"k" * 16, b"y"))
        blob = p.pk_encrypt(rsa_pair.public, b"z" * 300)
        p.pk_decrypt(rsa_pair.private, blob)
        sig = p.sign(esign_pair.signing, b"m")
        p.verify(esign_pair.verification, b"m", sig)
        p.derive_row_key(b"k" * 16, "name")
        c = p.counters
        assert c.total("sym_encrypt") == 2
        assert c.total("sym_decrypt") == 1
        assert c.total("pk_encrypt") == 1
        assert c.total("pk_decrypt") == 1
        assert c.total("sign") == 1
        assert c.total("verify") == 1
        assert c.total("keyed_hash") == 1

    def test_pk_blocks_are_nominal_2048(self, rsa_pair):
        p = CryptoProvider()
        p.pk_encrypt(rsa_pair.public, b"x" * 4096)
        assert p.counters.pk_blocks["pk_encrypt"] == 17

    def test_rsa_signature_dispatch(self, rsa_pair):
        p = CryptoProvider()
        sig = p.sign(rsa_pair.private, b"m")
        p.verify(rsa_pair.public, b"m", sig)
        assert p.counters.total("sign_rsa") == 1
        assert p.counters.total("verify_rsa") == 1

    def test_sign_wrong_key_type(self):
        with pytest.raises(CryptoError):
            CryptoProvider().sign(b"not a key", b"m")

    def test_listener_receives_events(self):
        events = []
        p = CryptoProvider(listener=events.append)
        p.sym_encrypt(b"k" * 16, b"data")
        assert len(events) == 1
        assert events[0].kind == "sym_encrypt"
        assert events[0].num_bytes == 4

    def test_counters_reset(self):
        p = CryptoProvider()
        p.sym_encrypt(b"k" * 16, b"x")
        p.counters.reset()
        assert p.counters.total("sym_encrypt") == 0


class TestClock:
    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_no_backwards(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_reset(self):
        clock = SimClock(10.0)
        clock.advance(5)
        clock.reset()
        assert clock.now == 0.0


class TestNetwork:
    def test_kbits_conversion(self):
        assert kbits_per_sec(8) == 1000.0

    def test_paper_dsl_rates(self):
        assert PAPER_DSL.upload_bytes_per_s == 850 * 125
        assert PAPER_DSL.download_bytes_per_s == 350 * 125

    def test_request_time_composition(self):
        link = NetworkLink(upload_bytes_per_s=1000,
                           download_bytes_per_s=500, rtt_s=0.1)
        t = link.request_time(1000, 500)
        assert math.isclose(t, 0.1 + 1.0 + 1.0)

    def test_multiple_round_trips(self):
        link = NetworkLink(1000, 1000, 0.1)
        assert math.isclose(link.request_time(0, 0, round_trips=3), 0.3)

    def test_asymmetry_matters(self):
        # 1 MB down takes much longer than 1 MB up on the paper's DSL.
        up = PAPER_DSL.upload_time(1_000_000)
        down = PAPER_DSL.download_time(1_000_000)
        assert down > 2 * up


class TestCostModel:
    def test_categories_accumulate(self):
        model = CostModel(FREE)
        model.charge(NETWORK, 1.0)
        model.charge(CRYPTO, 0.5)
        model.charge(OTHER, 0.25)
        model.charge_compute(2.0)
        assert model.totals.network == 1.0
        assert model.totals.crypto == 0.5
        assert model.totals.other == 0.25
        assert model.totals.compute == 2.0
        assert model.totals.total == 3.75
        assert model.clock.now == 3.75

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            CostModel(FREE).charge("quantum", 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostModel(FREE).charge(NETWORK, -1.0)

    def test_span_captures_nested(self):
        model = CostModel(FREE)
        model.charge(NETWORK, 1.0)
        with model.span() as outer:
            model.charge(NETWORK, 2.0)
            with model.span() as inner:
                model.charge(CRYPTO, 0.5)
        assert outer.network == 2.0
        assert outer.crypto == 0.5
        assert inner.crypto == 0.5
        assert inner.network == 0.0
        assert model.totals.network == 3.0

    def test_crypto_event_charging(self):
        model = CostModel(PAPER_2008)
        provider = CryptoProvider(listener=model.on_crypto_event)
        provider.sym_encrypt(b"k" * 16, b"x" * 1000)
        expected = (PAPER_2008.sym_fixed_s
                    + 1000 * PAPER_2008.sym_per_byte_s)
        assert math.isclose(model.totals.crypto, expected)

    def test_private_vs_public_block_asymmetry(self):
        # The core economics of the paper: private >> public >> symmetric.
        assert PAPER_2008.pk_private_block_s > 10 * PAPER_2008.pk_public_block_s
        assert PAPER_2008.pk_public_block_s > PAPER_2008.sym_fixed_s

    def test_esign_much_faster_than_rsa_private(self):
        # Footnote 3: over an order of magnitude faster.
        assert PAPER_2008.pk_private_block_s > 10 * PAPER_2008.esign_sign_s

    def test_free_profile_is_free(self):
        model = CostModel(FREE)
        model.charge_request(10_000, 10_000)
        model.charge_other()
        assert model.totals.total == 0.0

    def test_reset(self):
        model = CostModel(PAPER_2008)
        model.charge_request(1000, 1000)
        model.reset()
        assert model.totals.total == 0.0
        assert model.clock.now == 0.0

    def test_breakdown_repr(self):
        b = CostBreakdown()
        b.add(NETWORK, 1.0)
        assert "network=1.000" in repr(b)


class TestProfiles:
    def test_lan_profile_same_crypto(self):
        assert PAPER_2008_LAN.sym_fixed_s == PAPER_2008.sym_fixed_s
        assert PAPER_2008_LAN.link is LAN

    def test_dsl_profile_factory(self):
        profile = dsl_profile(1000, 500, 50)
        assert profile.link.rtt_s == 0.05
        assert profile.link.upload_bytes_per_s == kbits_per_sec(1000)
        assert profile.pk_private_block_s == PAPER_2008.pk_private_block_s

    def test_unknown_event_kind_rejected(self):
        from repro.crypto.provider import CryptoEvent
        with pytest.raises(ValueError):
            PAPER_2008.crypto_time(CryptoEvent("teleport", 1))
