import dataclasses
import random
import subprocess
import sys

import pytest

from helpers import ScriptRng, marginals_smoke_test
from blindsigncrypt.blind_sdss import verify
from blindsigncrypt.blind_signcrypt import BlindSigncryptedText
from blindsigncrypt.crypto_suite import derive_keys, kh_preimage
from blindsigncrypt.harness import (
    cross_pairing_check,
    measure_exponentiation_counts,
    run_honest_sessions,
    tamper_suite,
)
from blindsigncrypt.sdss import KeyPair


class TestRunHonestSessions:
    def test_toy_batch_all_verify(self, toy, suite):
        transcripts = run_honest_sessions(32, "blind_sdss", toy, suite,
                                          random.Random(1))
        assert len(transcripts) == 32
        ctx = transcripts[0].context
        for t in transcripts:
            assert verify(t.message, t.output, ctx.signer.y, toy, suite)

    def test_bsc_batch(self, toy, suite):
        transcripts = run_honest_sessions(16, "blind_signcrypt", toy, suite,
                                          random.Random(2))
        assert all(isinstance(t.output, BlindSigncryptedText) for t in transcripts)

    def test_single_scripted_session_reproduces_worked_vector(self, toy, stub_suite):
        # k_tilde=5, u=4, beta=2, alpha=6 with the keyed hash pinned to 7
        m, bind = b"settle anonymously", b"to-carol"
        keys = derive_keys(9, stub_suite)
        stub_suite.stub_keyed_hash(keys.k2, kh_preimage(m, bind), 7)
        transcripts = run_honest_sessions(
            1, "blind_signcrypt", toy, stub_suite, ScriptRng([5, 4, 2, 6]),
            messages=[m], bind_info=bind,
            signer=KeyPair(x=3, y=8), recipient=KeyPair(x=4, y=16))
        t = transcripts[0]
        assert t.view.k_tilde == 5
        assert (t.view.z, t.view.r_bar, t.view.s_bar) == (9, 9, 4)
        assert (t.requester_secrets.u, t.requester_secrets.alpha,
                t.requester_secrets.beta, t.requester_secrets.r) == (4, 6, 2, 7)
        assert (t.output.r, t.output.s, t.output.T) == (7, 8, 13)

    def test_zero_sessions_rejected(self, toy, suite, rng):
        with pytest.raises(ValueError):
            run_honest_sessions(0, "blind_sdss", toy, suite, rng)

    def test_unknown_scheme_rejected(self, toy, suite, rng):
        with pytest.raises(ValueError):
            run_honest_sessions(1, "nope", toy, suite, rng)

    def test_degenerate_restarts_are_counted(self, toy, suite):
        # at q=11 roughly one session in eleven restarts; 300 sessions make a
        # zero count astronomically unlikely under this fixed seed
        transcripts = run_honest_sessions(300, "blind_sdss", toy, suite,
                                          random.Random(3))
        assert transcripts[0].context.degenerate_retries >= 1


class TestCrossPairing:
    def test_toy_full_grid_passes(self, toy, suite):
        transcripts = run_honest_sessions(32, "blind_sdss", toy, suite,
                                          random.Random(4))
        report = cross_pairing_check(transcripts)
        assert report.total == 1024
        assert report.all_pass

    def test_bsc_views_pass_too(self, toy, suite):
        transcripts = run_honest_sessions(12, "blind_signcrypt", toy, suite,
                                          random.Random(5))
        assert cross_pairing_check(transcripts).all_pass

    def test_desk_grid_passes(self, desk, suite):
        transcripts = run_honest_sessions(8, "blind_sdss", desk, suite,
                                          random.Random(6))
        assert cross_pairing_check(transcripts).all_pass

    def test_forged_signature_fails_its_column(self, toy, suite):
        transcripts = run_honest_sessions(6, "blind_signcrypt", toy, suite,
                                          random.Random(7))
        bad = transcripts[3].output
        forged = dataclasses.replace(bad, s=bad.s % toy.q + 1
                                     if bad.s % toy.q + 1 != bad.s else bad.s + 2)
        transcripts[3] = dataclasses.replace(transcripts[3], output=forged)
        report = cross_pairing_check(transcripts)
        for i in range(6):
            assert report.cells[i][3] is False
            for j in range(6):
                if j != 3:
                    assert report.cells[i][j] is True

    def test_diagonal_recovers_actual_draws(self, toy, suite):
        transcripts = run_honest_sessions(2, "blind_sdss", toy, suite,
                                          random.Random(8))
        from blindsigncrypt.blind_sdss import recover_blinding_factors

        for t in transcripts:
            alpha, beta = recover_blinding_factors(
                t.view, t.signature(), t.requester_secrets.u, toy)
            assert (alpha, beta) == (t.requester_secrets.alpha,
                                     t.requester_secrets.beta)

    def test_needs_two_transcripts(self, toy, suite, rng):
        transcripts = run_honest_sessions(1, "blind_sdss", toy, suite, rng)
        with pytest.raises(ValueError):
            cross_pairing_check(transcripts)

    def test_csv_report(self, toy, suite):
        transcripts = run_honest_sessions(2, "blind_sdss", toy, suite,
                                          random.Random(9))
        csv = cross_pairing_check(transcripts).to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "pair_i,pair_j,pass"
        assert len(lines) == 5
        assert all(line.endswith(",1") for line in lines[1:])


class TestTamperSuite:
    def test_hundred_flips_all_rejected(self, desk, suite):
        transcripts = run_honest_sessions(1, "blind_signcrypt", desk, suite,
                                          random.Random(10))
        report = tamper_suite(transcripts[0], 100, random.Random(11))
        assert report.control_ok
        assert report.trials == 100
        assert report.all_rejected

    def test_zero_trials_is_pure_control(self, desk, suite):
        transcripts = run_honest_sessions(1, "blind_signcrypt", desk, suite,
                                          random.Random(12))
        report = tamper_suite(transcripts[0], 0, random.Random(13))
        assert report.control_ok
        assert report.rejections == 0

    def test_flips_restricted_to_ciphertext(self, desk, suite):
        transcripts = run_honest_sessions(1, "blind_signcrypt", desk, suite,
                                          random.Random(14))
        report = tamper_suite(transcripts[0], 50, random.Random(15), fields=("c",))
        assert report.all_rejected
        assert set(report.by_field) == {"c"}

    def test_wrong_scheme_rejected(self, toy, suite, rng):
        transcripts = run_honest_sessions(1, "blind_sdss", toy, suite, rng)
        with pytest.raises(ValueError):
            tamper_suite(transcripts[0], 1, rng)


class TestBench:
    def test_bsc_counts(self, desk, suite, rng):
        report = measure_exponentiation_counts("blind_signcrypt", desk, suite, rng)
        assert report.counts == {"A": 1, "B": 3, "C": 2}

    def test_blind_counts(self, desk, suite, rng):
        report = measure_exponentiation_counts("blind_sdss", desk, suite, rng)
        assert report.counts == {"A": 1, "B": 3, "verify": 2}

    def test_report_documents_strategy(self, toy, suite, rng):
        report = measure_exponentiation_counts("blind_signcrypt", toy, suite, rng)
        lines = report.lines()
        assert any("strategy" in line for line in lines)
        assert any(line.startswith("party A: 1") for line in lines)


class TestMarginalsSmoke:
    def test_uniformish_marginals(self, toy, suite):
        transcripts = run_honest_sessions(1650, "blind_sdss", toy, suite,
                                          random.Random(16))
        assert marginals_smoke_test(transcripts)


class TestOptimizedMode:
    def test_forged_transcript_raises_under_python_O(self):
        # the consistency checks are explicit raises, not asserts, so
        # python -O must not let a forged signature through
        probe = """
import dataclasses, random, sys
from blindsigncrypt import blind_sdss, harness
from blindsigncrypt.crypto_suite import std_suite
from blindsigncrypt.group_math import desk512
assert sys.flags.optimize
real = blind_sdss.requester_finalize
blind_sdss.requester_finalize = lambda *a: dataclasses.replace(real(*a), s=1)
try:
    harness.run_honest_sessions(2, "blind_sdss", desk512(), std_suite(), random.Random(1))
except Exception as exc:
    print(type(exc).__name__, exc)
    sys.exit(0)
sys.exit(1)
"""
        proc = subprocess.run([sys.executable, "-O", "-c", probe],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("HarnessCheckFailed harness check failed: "), proc.stdout
