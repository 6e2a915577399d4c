import dataclasses
import random
import subprocess
import sys

import pytest

from helpers import ConstantRng, ScriptRng, flip_bit, marginals_smoke_test, three_power_outcome
from blindsigncrypt import blind_sdss, group_math, harness
from blindsigncrypt.blind_sdss import (
    BlindSignature,
    pairing_grid,
    recover_blinding_factors,
    verify,
)
from blindsigncrypt.errors import BadGenerator, HarnessCheckFailed, InconsistentPair, RngFailure
from blindsigncrypt.group_math import GroupParams, count_exponentiations
from blindsigncrypt.blind_signcrypt import BlindSigncryptedText
from blindsigncrypt.crypto_suite import derive_keys, kh_preimage
from blindsigncrypt.harness import (
    cross_pairing_check,
    measure_exponentiation_counts,
    run_honest_sessions,
    tamper_suite,
)
from blindsigncrypt.sdss import KeyPair, keygen


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

    @pytest.mark.parametrize("messages", [[b"one"], [b"one", b"two", b"three"]],
                             ids=["fewer", "more"])
    def test_message_count_must_match(self, toy, suite, messages):
        with pytest.raises(ValueError, match="exactly one message per session"):
            run_honest_sessions(2, "blind_sdss", toy, suite, ScriptRng([]), messages=messages)

    def test_degenerate_restarts_are_counted(self, toy, suite):
        # at q=11 roughly one session in eleven restarts; 300 sessions make a
        # zero count astronomically unlikely under this fixed seed
        transcripts = run_honest_sessions(300, "blind_sdss", toy, suite,
                                          random.Random(3))
        assert transcripts[0].context.degenerate_retries >= 1

    @pytest.mark.parametrize("scheme, c", [("blind_sdss", 3), ("blind_signcrypt", 9)])
    def test_restart_loop_is_bounded(self, toy, suite, scheme, c):
        # with every draw equal to c, each attempt hits the same degenerate
        # denominator; the restart loop once ran forever
        signer, recipient = keygen(toy, random.Random(1)), keygen(toy, random.Random(2))
        with pytest.raises(RngFailure, match="degenerate denominator"):
            run_honest_sessions(1, scheme, toy, suite, ConstantRng(c), messages=[b"m"],
                                signer=signer, recipient=recipient)


class TestSessionCost:
    """Every group element a harness check needs is compared with the one the
    receiving party's move computes, never computed a second time."""

    @pytest.mark.parametrize("scheme, powers", [("blind_sdss", 7), ("blind_signcrypt", 7)])
    def test_exact_powers_per_session(self, desk, suite, scheme, powers):
        rng = random.Random(50)
        signer, recipient = keygen(desk, rng), keygen(desk, rng)
        with count_exponentiations() as counter:
            t = run_honest_sessions(1, scheme, desk, suite, rng,
                                    signer=signer, recipient=recipient)[0]
        assert counter.count == powers + 4 * t.context.degenerate_retries

    def test_each_restart_costs_the_protocol_powers(self, toy, stub_suite):
        # the worked vector's draws, first with alpha = 0, which makes
        # r + s_bar + alpha = 7 + 4 + 0 = 0 mod 11 and restarts the session
        m, bind = b"settle anonymously", b"to-carol"
        stub_suite.stub_keyed_hash(derive_keys(9, stub_suite).k2, kh_preimage(m, bind), 7)
        with count_exponentiations() as counter:
            t = run_honest_sessions(
                1, "blind_signcrypt", toy, stub_suite, ScriptRng([5, 4, 2, 0, 5, 4, 2, 6]),
                messages=[m], bind_info=bind,
                signer=KeyPair(x=3, y=8), recipient=KeyPair(x=4, y=16))[0]
        assert t.context.degenerate_retries == 1
        assert (t.output.r, t.output.s, t.output.T) == (7, 8, 13)
        assert counter.count == 7 + 4
        assert t.modexp_counts == {"A": 1, "B": 3, "C": 2}  # the restart's powers are not in it

    @pytest.mark.parametrize("scheme", ["blind_sdss", "blind_signcrypt"])
    def test_wrong_commitment_is_caught(self, desk, suite, scheme):
        # another u leaves the output valid, so only the one-time-key identity
        # y_A * T = g^(s^-1 * u - r) can catch it
        t = run_honest_sessions(1, scheme, desk, suite, random.Random(52))[0]
        sec = t.requester_secrets
        forged = dataclasses.replace(
            t, requester_secrets=dataclasses.replace(sec, u=sec.u % (desk.q - 1) + 1))
        with pytest.raises(HarnessCheckFailed, match="recovers the commitment"):
            harness._check_consistent(forged)

    def test_wrong_key_agreement_is_caught(self, desk, suite):
        # a recipient entry whose public key is not g^x_C: the requester seals
        # under y_C^u, which the recipient's (y_A * T * g^r)^(s * x_C) misses
        rng = random.Random(51)
        recipient = keygen(desk, rng)
        wrong = KeyPair(x=recipient.x, y=recipient.y * desk.g % desk.p)
        with pytest.raises(HarnessCheckFailed, match="unsigncrypt recovers the message"):
            run_honest_sessions(1, "blind_signcrypt", desk, suite, rng,
                                recipient=wrong, messages=[b"sealed to y_C"])

    def test_rejected_text_fails_the_check(self, desk, suite):
        # the recipient's TagMismatch once escaped as itself, not as a failed check
        t = run_honest_sessions(1, "blind_signcrypt", desk, suite, random.Random(53),
                                messages=[b"a message to flip"])[0]
        forged = dataclasses.replace(t, output=dataclasses.replace(
            t.output, c=flip_bit(t.output.c, 5)))
        with pytest.raises(HarnessCheckFailed, match="unsigncrypt recovers the message"):
            harness._check_consistent(forged)

    def test_scope_left_by_an_exception_stops_counting(self):
        counts = {"A": 1}
        with pytest.raises(ZeroDivisionError):
            with harness._counted(counts, "A") as scope:
                group_math.modexp(2, 3, 23)
                1 / 0
        group_math.modexp(2, 3, 23)
        assert (scope.count, counts) == (1, {"A": 1})
        assert group_math._active_counters.get() == ()

    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    def test_no_check_retakes_a_receiver_power(self, desk, suite, scheme, monkeypatch):
        # every (base, exponent, modulus) handed to either kernel, each of
        # _power2's two powers on its own, split by whether the receiving
        # party's move took it
        rng = random.Random(54)
        signer, recipient = keygen(desk, rng), keygen(desk, rng)
        power, power2, open_move = group_math._power, group_math._power2, harness._open
        receiver, elsewhere = set(), set()
        taken = [elsewhere]

        def spy_power(*args, **kwargs):
            taken[0].add(args)
            return power(*args, **kwargs)

        def spy_power2(b1, e1, b2, e2, mod):
            taken[0].update({(b1, e1, mod), (b2, e2, mod)})
            return power2(b1, e1, b2, e2, mod)

        def spy_open(t):
            taken[0] = receiver
            try:
                return open_move(t)
            finally:
                taken[0] = elsewhere

        monkeypatch.setattr(group_math, "_power", spy_power)
        monkeypatch.setattr(group_math, "_power2", spy_power2)
        monkeypatch.setattr(harness, "_open", spy_open)
        run_honest_sessions(1, scheme, desk, suite, rng, signer=signer, recipient=recipient)
        assert len(receiver) == 2
        assert receiver.isdisjoint(elsewhere)


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


def outcome(recover, *args):
    """(alpha, beta) from a recovery, or None when it raises InconsistentPair."""
    try:
        return recover(*args)
    except InconsistentPair:
        return None


class TestCrossPairingGrid:
    """The grid splits g^alpha into a power per column and a power per row and
    shares one view's z-powers along its row; every cell must still equal a
    fresh per-cell recovery and the three-power formula, for views outside
    the order-q subgroup and for malformed signatures too."""

    def grid(self, desk, suite):
        q, p, g = desk.q, desk.p, desk.g
        honest = run_honest_sessions(6, "blind_sdss", desk, suite, random.Random(41))
        twins = [dataclasses.replace(t, view=dataclasses.replace(t.view, z=t.view.z * (p - 1) % p))
                 for t in honest]
        sig, u = honest[0].signature(), honest[0].requester_secrets.u
        bad = [(BlindSignature(r=sig.r, s=sig.s % (q - 1) + 1, T=sig.T), u),  # forged s
               (BlindSignature(r=sig.r, s=sig.s, T=sig.T * g % p), u),  # forged T
               (BlindSignature(r=0, s=sig.s, T=sig.T), u),
               (BlindSignature(r=sig.r + q, s=sig.s, T=sig.T), u),  # same residue, r >= q
               (BlindSignature(r=sig.r, s=0, T=sig.T), u),
               (sig, 0),
               (sig, u + q),  # same residue, u >= q
               (BlindSignature(r=sig.r, s=sig.s + q, T=sig.T), u),
               (BlindSignature(r=sig.r, s=sig.s, T=sig.T + p), u)]
        forged = [dataclasses.replace(
                      honest[1 + i % 5], output=out,
                      requester_secrets=dataclasses.replace(honest[0].requester_secrets, u=u))
                  for i, (out, u) in enumerate(bad)]
        return honest, honest + twins + forged

    def test_every_cell_matches_per_cell_recovery(self, desk, suite):
        honest, transcripts = self.grid(desk, suite)
        report = cross_pairing_check(transcripts)
        columns = [(t.signature(), t.requester_secrets.u) for t in transcripts]
        outcomes, branches = set(), set()
        for i, t in enumerate(transcripts):
            for j, (sig, u) in enumerate(columns):
                expected = outcome(recover_blinding_factors, t.view, sig, u, desk)
                assert expected == three_power_outcome(t.view, sig, u, desk)
                assert report.cells[i][j] is (expected is not None)
                outcomes.add(expected is not None)
                if 0 <= sig.r < desk.q:
                    branches.add(sig.r + (t.view.r_bar - sig.r) % desk.q - t.view.r_bar)
        assert outcomes == {True, False}
        assert branches == {0, desk.q}
        n = len(honest)
        assert all(report.cells[i][j] for i in range(n) for j in range(n))
        # the twin z * (p - 1) of a view passes exactly where r + beta is even
        for i in range(n):
            view = transcripts[n + i].view
            for j, (sig, _) in enumerate(columns[:n]):
                even = (sig.r + (view.r_bar - sig.r) % desk.q) % 2 == 0
                assert report.cells[n + i][j] is even

    def spy_grid(self, monkeypatch):
        """Record blind_sdss's modexp (base, exponent, public) triples, those
        it calls as group_math.modexp included, modexp2 base pairs and modinv
        calls."""
        powers, pairs, inverses = [], [], []
        modexp, modexp2, modinv = blind_sdss.modexp, blind_sdss.modexp2, blind_sdss.modinv

        def spy(base, exp, p, *, public=False):
            powers.append((base, exp, public))
            return modexp(base, exp, p, public=public)

        def spy2(b1, e1, b2, e2, p):
            pairs.append((b1, b2))
            return modexp2(b1, e1, b2, e2, p)

        def spy_inv(a, q):
            inverses.append(a)
            return modinv(a, q)

        monkeypatch.setattr(blind_sdss, "modexp", spy)
        monkeypatch.setattr(group_math, "modexp", spy)
        monkeypatch.setattr(blind_sdss, "modexp2", spy2)
        monkeypatch.setattr(blind_sdss, "modinv", spy_inv)
        return powers, pairs, inverses

    def test_honest_grid_cost(self, desk, suite, monkeypatch):
        # n + 1 powers of g, one two-base call on (z_i, g) per row, a z_i^q
        # for each row that needs both r_bar and r_bar + q, one inversion;
        # g^q and every z_i^q take the variable-time kernel, and every
        # g^(-a_j), whose a_j is secret, the constant-time one
        transcripts = run_honest_sessions(6, "blind_sdss", desk, suite, random.Random(42))
        n, q, g = len(transcripts), desk.q, desk.g
        exponents = blind_sdss.one_time_exponents(
            [(t.signature(), t.requester_secrets.u) for t in transcripts], q)
        powers, pairs, inverses = self.spy_grid(monkeypatch)
        with count_exponentiations() as counter:
            assert cross_pairing_check(transcripts).all_pass
        views = [t.view for t in transcripts]
        assert counter.count == len(powers) + 2 * len(pairs)
        assert powers[:n + 1] == [(g, q, True)] + [(g, -a % q, False) for a in exponents]
        assert pairs == [(view.z, g) for view in views]
        both = [view.z for view in views
                if len({t.signature().r + (view.r_bar - t.signature().r) % q
                        for t in transcripts}) == 2]
        assert powers[n + 1:] == [(z, q, True) for z in both]
        assert 3 * n + 1 <= counter.count <= 4 * n + 1
        assert len(inverses) == 1

    def test_one_time_exponents_match_each_column(self, desk, suite):
        _, transcripts = self.grid(desk, suite)
        q = desk.q
        columns = [(t.signature(), t.requester_secrets.u) for t in transcripts]
        exponents = blind_sdss.one_time_exponents(columns, q)
        assert exponents == [blind_sdss.one_time_exponent(sig, u, q) for sig, u in columns]
        assert None in exponents
        for (sig, u), a in zip(columns, exponents):
            assert a is None or a == (pow(sig.s, -1, q) * u - sig.r) % q

    def test_failed_columns_take_no_inversion_and_no_power(self, desk, suite, monkeypatch):
        transcripts = run_honest_sessions(2, "blind_sdss", desk, suite, random.Random(46))
        sig, u = transcripts[0].signature(), transcripts[0].requester_secrets.u
        columns = [(BlindSignature(r=0, s=sig.s, T=sig.T), u),
                   (BlindSignature(r=sig.r, s=0, T=sig.T), u),
                   (BlindSignature(r=sig.r, s=sig.s + desk.q, T=sig.T), u),
                   (sig, desk.q)]
        powers, pairs, inverses = self.spy_grid(monkeypatch)
        cells = pairing_grid([t.view for t in transcripts], columns, desk)
        assert cells == [[False] * len(columns)] * len(transcripts)
        assert (powers, pairs, inverses) == ([(desk.g, desk.q, True)], [], [])

    @pytest.mark.parametrize("low", [True, False], ids=["r_bar", "r_bar + q"])
    def test_row_with_one_exponent_costs_two_powers(self, desk, suite, low):
        # an honest view against the columns with r <= r_bar keys every cell
        # by r_bar, and against those with r > r_bar by r_bar + q
        transcripts = run_honest_sessions(8, "blind_sdss", desk, suite, random.Random(47))
        q = desk.q
        columns = [(t.signature(), t.requester_secrets.u) for t in transcripts]
        rows = 0
        for view in (t.view for t in transcripts):
            side = [(sig, u) for sig, u in columns if (sig.r <= view.r_bar) is low]
            if not side:
                continue
            assert {sig.r + (view.r_bar - sig.r) % q for sig, _ in side} == \
                {view.r_bar if low else view.r_bar + q}
            with count_exponentiations() as counter:
                assert pairing_grid([view], side, desk) == [[True] * len(side)]
            assert counter.count == 1 + len(side) + 2
            rows += 1
        assert rows >= 2

    def test_generator_of_wrong_order_rejected(self, toy, suite):
        # g = 5 has order 22 mod 23, so g^alpha does not split by columns and rows
        bad = GroupParams(p=23, q=11, g=5)
        assert pow(bad.g, bad.q, bad.p) != 1
        transcripts = run_honest_sessions(2, "blind_sdss", toy, suite, random.Random(43))
        with pytest.raises(BadGenerator):
            pairing_grid([t.view for t in transcripts],
                         [(t.signature(), t.requester_secrets.u) for t in transcripts], bad)

    def test_wide_generator_named_by_its_size(self):
        # g^2 = (-2)^2 = 4 mod p; str(g) raises ValueError past 4300 digits (Python 3.11+)
        p = (1 << 20000) + 1
        with pytest.raises(BadGenerator,
                           match="^g = a 20000-bit integer does not have order dividing q$"):
            pairing_grid([], [], GroupParams(p=p, q=2, g=p - 2))

    def test_mixed_parameter_sets_rejected(self, toy, desk, suite):
        transcripts = (run_honest_sessions(2, "blind_sdss", desk, suite, random.Random(44))
                       + run_honest_sessions(2, "blind_sdss", toy, suite, random.Random(45)))
        with pytest.raises(ValueError, match="one parameter set"):
            cross_pairing_check(transcripts)


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

    def test_empty_message_flips_only_the_signature(self, desk, suite):
        # an empty message leaves no ciphertext bit to flip
        t = run_honest_sessions(1, "blind_signcrypt", desk, suite, random.Random(14),
                                messages=[b""])[0]
        report = tamper_suite(t, 60, random.Random(15))
        assert report.control_ok and report.all_rejected
        assert set(report.by_field) == {"r", "s", "T"}

    def test_failed_control_is_reported(self, desk, suite):
        t = run_honest_sessions(1, "blind_signcrypt", desk, suite, random.Random(18))[0]
        broken = dataclasses.replace(t, output=dataclasses.replace(t.output, r=t.output.r ^ 1))
        report = tamper_suite(broken, 20, random.Random(19))
        assert report.control_ok is False
        assert (report.trials, report.rejections) == (20, 20)
        assert report.summary().endswith("(control accepts: False)")

    def test_wrong_scheme_rejected(self, toy, suite, rng):
        transcripts = run_honest_sessions(1, "blind_sdss", toy, suite, rng)
        with pytest.raises(ValueError):
            tamper_suite(transcripts[0], 1, rng)

    @pytest.mark.parametrize("trials", [-1, -3])
    def test_negative_trials_rejected_before_any_draw(self, toy, suite, trials):
        # a negative count once returned a report reading "0/-3 single-bit flips rejected"
        transcripts = run_honest_sessions(1, "blind_signcrypt", toy, suite, random.Random(17))
        rng = ScriptRng([])  # any draw fails the test
        with pytest.raises(ValueError, match="trials must be at least 0"):
            tamper_suite(transcripts[0], trials, rng)


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

    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    def test_receiver_moves_once(self, desk, suite, rng, scheme, monkeypatch):
        # the counts are the checked session's own; no second, unchecked open
        opened = []
        real_open = harness._open
        monkeypatch.setattr(harness, "_open", lambda t: opened.append(t) or real_open(t))
        report = measure_exponentiation_counts(scheme, desk, suite, rng)
        assert len(opened) == 1
        assert report.counts == opened[0].modexp_counts

    @pytest.mark.parametrize("scheme, receiver", [("blind_sdss", "verify"),
                                                  ("blind_signcrypt", "C")])
    def test_every_transcript_counts_the_receiver(self, toy, suite, scheme, receiver):
        # at q = 11 sessions restart, and B redraws u when r = 0 mod q, one
        # more power per redrawn u; A and the receiver are exact
        transcripts = run_honest_sessions(300, scheme, toy, suite, random.Random(3))
        assert transcripts[0].context.degenerate_retries >= 1
        for t in transcripts:
            assert list(t.modexp_counts) == ["A", "B", receiver]
            assert (t.modexp_counts["A"], t.modexp_counts[receiver]) == (1, 2)
            assert t.modexp_counts["B"] >= 3


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
