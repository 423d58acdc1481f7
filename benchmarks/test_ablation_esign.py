"""Ablation: ESIGN vs RSA signatures (paper footnote 3).

"While public key schemes like RSA can be used for signing and
verification, there are other techniques like ESIGN that are over an
order of magnitude faster."  This harness measures our *actual*
implementations (host time, pytest-benchmark) and the simulated 2008
profile costs.
"""

import time

import pytest

from repro.crypto import esign, rsa
from repro.sim.profiles import PAPER_2008
from repro.workloads.report import format_table

from .common import emit

MESSAGE = b"the quick brown block of file data" * 8


@pytest.fixture(scope="module")
def keys():
    return {
        "esign": esign.generate_keypair(prime_bits=256),
        "rsa": rsa.generate_keypair(1024),
    }


def _time_per_op(fn, min_ops: int = 50) -> float:
    start = time.perf_counter()
    for _ in range(min_ops):
        fn()
    return (time.perf_counter() - start) / min_ops


def test_report_signature_ablation(keys):
    e, r = keys["esign"], keys["rsa"]
    esign_sign = _time_per_op(lambda: esign.sign(e.signing, MESSAGE))
    rsa_sign = _time_per_op(lambda: rsa.sign(r.private, MESSAGE))
    esig = esign.sign(e.signing, MESSAGE)
    rsig = rsa.sign(r.private, MESSAGE)
    esign_verify = _time_per_op(
        lambda: esign.verify(e.verification, MESSAGE, esig))
    rsa_verify = _time_per_op(
        lambda: rsa.verify(r.public, MESSAGE, rsig))
    rows = [
        ["ESIGN (n=p^2q, e=4)", f"{esign_sign * 1e6:.0f}",
         f"{esign_verify * 1e6:.0f}"],
        ["RSA", f"{rsa_sign * 1e6:.0f}", f"{rsa_verify * 1e6:.0f}"],
        ["host speedup (sign)", f"{rsa_sign / esign_sign:.1f}x", ""],
        ["simulated-2008 speedup",
         f"{PAPER_2008.pk_private_block_s / PAPER_2008.esign_sign_s:.0f}x",
         ""],
    ]
    emit("ablation_esign", format_table(
        "ESIGN vs RSA signing (host microseconds per op)",
        ["scheme", "sign us", "verify us"], rows))


class TestClaims:
    def test_esign_sign_order_of_magnitude_faster(self, keys):
        """Footnote 3's claim, on our real implementations."""
        e, r = keys["esign"], keys["rsa"]
        esign_time = _time_per_op(lambda: esign.sign(e.signing, MESSAGE))
        rsa_time = _time_per_op(lambda: rsa.sign(r.private, MESSAGE), 20)
        assert rsa_time > 10 * esign_time

    def test_simulated_profile_reflects_the_gap(self):
        assert (PAPER_2008.pk_private_block_s
                > 10 * PAPER_2008.esign_sign_s)


def test_benchmark_esign_sign(benchmark, keys):
    benchmark(lambda: esign.sign(keys["esign"].signing, MESSAGE))


def test_benchmark_esign_verify(benchmark, keys):
    sig = esign.sign(keys["esign"].signing, MESSAGE)
    benchmark(lambda: esign.verify(keys["esign"].verification, MESSAGE,
                                   sig))


def test_benchmark_rsa_sign(benchmark, keys):
    benchmark(lambda: rsa.sign(keys["rsa"].private, MESSAGE))


def test_benchmark_aes_ctr_4k(benchmark):
    from repro.crypto import aes
    payload = b"m" * 4096
    benchmark(lambda: aes.encrypt_ctr(b"k" * 16, payload))


def test_benchmark_stream_seal_64k(benchmark):
    from repro.crypto import stream
    payload = b"m" * 65536
    benchmark(lambda: stream.seal(b"k" * 16, payload))
