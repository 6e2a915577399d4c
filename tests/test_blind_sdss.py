import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ScriptRng, three_power_outcome
from blindsigncrypt import blind_signcrypt, sdss, zheng
from blindsigncrypt.blind_sdss import (
    BlindSignature,
    View,
    pairing_grid,
    requester_challenge,
    requester_finalize,
    signer_commit,
    signer_respond,
    verify,
)
from blindsigncrypt.crypto_suite import std_suite
from blindsigncrypt.errors import (
    BadChallenge,
    BadCommit,
    DegenerateDenominator,
    InvalidState,
    TagMismatch,
)
from blindsigncrypt.group_math import GroupParams, int_to_bytes, modexp
from blindsigncrypt.sdss import KeyPair, SdssSignature, commitment_hash, key_power, keygen, sign

MSG = b"unlinkable payment order"
ALICE = KeyPair(x=3, y=8)

# order-7 subgroup of Z_29* generated by 16 contains 16^3 = 7, divisible by q;
# used to exercise the commitment retry
P29 = GroupParams(p=29, q=7, g=16)


def pin_blind_hash(stub_suite, u, params, m, value):
    """Pin r = h(g^u mod p || m)."""
    stub_suite.stub_hash(int_to_bytes(modexp(params.g, u, params.p)) + m, value)
    return stub_suite


def run_toy_session(toy, stub_suite, signer_script=(5,), requester_script=(4, 2, 6)):
    suite = pin_blind_hash(stub_suite, 4, toy, MSG, 7)
    signer_session, commit = signer_commit(ALICE, toy, ScriptRng(signer_script))
    requester, challenge = requester_challenge(
        MSG, commit.z, ALICE.y, toy, suite, ScriptRng(requester_script))
    response = signer_respond(signer_session, challenge.r_bar, ALICE)
    sig = requester_finalize(requester, response.s_bar, toy)
    return signer_session, requester, sig, suite


class TestWorkedVectors:
    def test_commit(self, toy):
        session, commit = signer_commit(ALICE, toy, ScriptRng([5]))
        assert commit.z == 9
        assert session.k_tilde == 5
        assert session.spent is False

    def test_challenge(self, toy, stub_suite):
        # u=4, r=7, beta=2, alpha=6: r_bar = 9, T = 9^9 * 2^6 = 13 mod 23
        suite = pin_blind_hash(stub_suite, 4, toy, MSG, 7)
        requester, challenge = requester_challenge(
            MSG, 9, ALICE.y, toy, suite, ScriptRng([4, 2, 6]))
        assert challenge.r_bar == 9
        assert (requester.r, requester.beta, requester.alpha) == (7, 2, 6)
        assert requester.T == 13

    def test_respond(self, toy):
        session, _ = signer_commit(ALICE, toy, ScriptRng([5]))
        response = signer_respond(session, 9, ALICE)
        assert response.s_bar == (3 + 9 * 5) % 11 == 4

    def test_finalize(self, toy, stub_suite):
        # s = u / (r + s_bar + alpha) = 4 * inv(6) = 8 mod 11
        _, requester, sig, _ = run_toy_session(toy, stub_suite)
        assert sig == BlindSignature(r=7, s=8, T=13)

    def test_verify(self, toy, stub_suite):
        # K = (8 * 13 * 2^7)^8 = 18^8 = 16 = g^4 = g^u mod 23
        _, requester, sig, suite = run_toy_session(toy, stub_suite)
        assert key_power(ALICE.y * sig.T % toy.p, sig.r, sig.s, toy) == 16
        assert verify(MSG, sig, ALICE.y, toy, suite)

    def test_recover_blinding_factors(self, toy, stub_suite):
        signer_session, requester, sig, _ = run_toy_session(toy, stub_suite)
        view = View(z=modexp(toy.g, signer_session.k_tilde, toy.p),
                    r_bar=(requester.r + requester.beta) % toy.q, s_bar=4,
                    k_tilde=signer_session.k_tilde)
        assert three_power_outcome(view, sig, requester.u, toy) == (6, 2)
        assert (requester.alpha, requester.beta) == (6, 2)
        assert pairing_grid([view], [(sig, requester.u)], toy) == [[True]]


class TestGuards:
    def test_commit_retries_when_q_divides_z(self):
        # 16^3 mod 29 = 7 = q: first draw must be discarded
        key = keygen(P29, random.Random(0))
        rng = ScriptRng([3, 2])
        session, commit = signer_commit(key, P29, rng)
        assert session.k_tilde == 2
        assert commit.z % P29.q != 0

    def test_requester_rejects_bad_commit(self, toy, suite):
        with pytest.raises(BadCommit):
            requester_challenge(MSG, 11, ALICE.y, toy, suite, random.Random(0))

    def test_requester_rejects_out_of_range_commit(self, toy, suite):
        for z in (0, toy.p, toy.p + 9):
            with pytest.raises(BadCommit):
                requester_challenge(MSG, z, ALICE.y, toy, suite, random.Random(0))

    @pytest.mark.parametrize("p, q, z, message", [
        (23, 11, 1 << 20000, "commitment z = a 20001-bit integer is outside [1, p-1]"),
        ((1 << 20000) + 1, 11, 11 << 19996, "commitment z = a 20000-bit integer is divisible by q"),
    ], ids=["outside", "divisible"])
    def test_wide_commit_named_by_its_size(self, suite, p, q, z, message):
        # str(z) raises ValueError past 4300 digits (Python 3.11+)
        with pytest.raises(BadCommit) as exc:
            requester_challenge(MSG, z, ALICE.y, GroupParams(p, q, 2), suite, random.Random(0))
        assert str(exc.value) == message

    def test_beta_redrawn_until_challenge_nonzero(self, toy, stub_suite):
        # r=7 and beta=4 give r_bar = 0 mod 11: redraw
        suite = pin_blind_hash(stub_suite, 4, toy, MSG, 7)
        requester, challenge = requester_challenge(
            MSG, 9, ALICE.y, toy, suite, ScriptRng([4, 4, 2, 6]))
        assert challenge.r_bar == 9
        assert requester.beta == 2

    def test_u_redrawn_until_r_nonzero(self, toy, stub_suite):
        suite = pin_blind_hash(stub_suite, 1, toy, MSG, 0)  # u=1 hashes to 0
        suite = pin_blind_hash(suite, 4, toy, MSG, 7)
        requester, _ = requester_challenge(
            MSG, 9, ALICE.y, toy, suite, ScriptRng([1, 4, 2, 6]))
        assert requester.u == 4
        assert requester.r == 7

    def test_zero_challenge_rejected(self, toy):
        session, _ = signer_commit(ALICE, toy, ScriptRng([5]))
        with pytest.raises(BadChallenge):
            signer_respond(session, 0, ALICE)
        # guard failure must not consume the session
        assert signer_respond(session, 9, ALICE).s_bar == 4

    def test_session_reuse_rejected(self, toy):
        session, _ = signer_commit(ALICE, toy, ScriptRng([5]))
        signer_respond(session, 9, ALICE)
        with pytest.raises(InvalidState):
            signer_respond(session, 9, ALICE)

    def test_finalize_reuse_rejected(self, toy, stub_suite):
        _, requester, _, _ = run_toy_session(toy, stub_suite)
        assert requester.spent is True
        with pytest.raises(InvalidState):
            requester_finalize(requester, 4, toy)

    def test_degenerate_denominator_aborts(self, toy, stub_suite):
        # alpha = -(r + s_bar) mod q makes the unblinding denominator vanish:
        # r=7, s_bar=4, alpha=0
        suite = pin_blind_hash(stub_suite, 4, toy, MSG, 7)
        signer_session, commit = signer_commit(ALICE, toy, ScriptRng([5]))
        requester, challenge = requester_challenge(
            MSG, commit.z, ALICE.y, toy, suite, ScriptRng([4, 2, 0]))
        response = signer_respond(signer_session, challenge.r_bar, ALICE)
        with pytest.raises(DegenerateDenominator):
            requester_finalize(requester, response.s_bar, toy)
        # the session is burned; a repeat does not sneak through
        with pytest.raises(InvalidState):
            requester_finalize(requester, response.s_bar, toy)


def complete_session(key, m, params, suite, rng):
    while True:
        signer_session, commit = signer_commit(key, params, rng)
        requester, challenge = requester_challenge(
            m, commit.z, key.y, params, suite, rng)
        response = signer_respond(signer_session, challenge.r_bar, key)
        try:
            sig = requester_finalize(requester, response.s_bar, params)
        except DegenerateDenominator:
            continue
        return signer_session, requester, response, sig


class TestCompleteness:
    def test_thousand_toy_sessions(self, toy, suite):
        rng = random.Random(7)
        key = keygen(toy, rng)
        for i in range(1000):
            m = rng.randbytes(rng.randrange(48))
            _, requester, _, sig = complete_session(key, m, toy, suite, rng)
            assert verify(m, sig, key.y, toy, suite)
            # the recovered commitment is g^u
            K = key_power(key.y * sig.T % toy.p, sig.r, sig.s, toy)
            assert K == modexp(toy.g, requester.u, toy.p)

    def test_thousand_desk_sessions(self, desk, suite):
        rng = random.Random(8)
        key = keygen(desk, rng)
        for i in range(1000):
            m = rng.randbytes(rng.randrange(48))
            _, requester, _, sig = complete_session(key, m, desk, suite, rng)
            assert verify(m, sig, key.y, desk, suite)
            K = key_power(key.y * sig.T % desk.p, sig.r, sig.s, desk)
            assert K == modexp(desk.g, requester.u, desk.p)


class TestBlindness:
    def sessions(self, n, params, suite, seed):
        rng = random.Random(seed)
        key = keygen(params, rng)
        out = []
        for _ in range(n):
            signer_session, requester, response, sig = complete_session(
                key, rng.randbytes(24), params, suite, rng)
            view = View(z=modexp(params.g, signer_session.k_tilde, params.p),
                        r_bar=(requester.r + requester.beta) % params.q,
                        s_bar=response.s_bar, k_tilde=signer_session.k_tilde)
            out.append((view, requester, sig))
        return out

    def test_cross_session_recovery(self, desk, suite):
        # every view must reconcile with every signature, not just its own
        sessions = self.sessions(8, desk, suite, seed=31)
        views = [view for view, _, _ in sessions]
        columns = [(sig, requester.u) for _, requester, sig in sessions]
        assert pairing_grid(views, columns, desk) == [[True] * 8] * 8
        for view in views:
            for sig, u in columns:
                assert three_power_outcome(view, sig, u, desk) is not None

    def test_diagonal_recovers_actual_draws(self, toy, suite):
        sessions = self.sessions(6, toy, suite, seed=32)
        cells = pairing_grid([view for view, _, _ in sessions],
                             [(sig, requester.u) for _, requester, sig in sessions], toy)
        for i, (view, requester, sig) in enumerate(sessions):
            assert cells[i][i]
            assert (three_power_outcome(view, sig, requester.u, toy)
                    == (requester.alpha, requester.beta))

    def test_two_powers_match_three_power_formula(self, desk, suite):
        # the grid's z^(r + beta) with the unreduced exponent equals
        # z^r * z^beta for every z in Z_p*, including z * (p - 1), which is
        # outside the order-q subgroup
        sessions = self.sessions(4, desk, suite, seed=35)
        views = [view for view, _, _ in sessions]
        views += [dataclasses.replace(view, z=view.z * (desk.p - 1) % desk.p)
                  for view in views]
        columns = [(sig, requester.u) for _, requester, sig in sessions]
        cells = pairing_grid(views, columns, desk)
        assert cells == [[three_power_outcome(view, sig, u, desk) is not None
                          for sig, u in columns] for view in views]
        assert {cell for row in cells for cell in row} == {True, False}

    def test_forged_signature_detected(self, desk, suite):
        sessions = self.sessions(2, desk, suite, seed=33)
        view, requester, sig = sessions[0]
        forged = BlindSignature(r=sig.r, s=(sig.s + 1) % desk.q or 1, T=sig.T)
        assert pairing_grid([view], [(sig, requester.u), (forged, requester.u)],
                            desk) == [[True, False]]
        assert three_power_outcome(view, forged, requester.u, desk) is None

    def test_zero_s_is_inconsistent(self, toy, suite):
        sessions = self.sessions(2, toy, suite, seed=34)
        view, requester, sig = sessions[0]
        zero_s = BlindSignature(r=sig.r, s=0, T=sig.T)
        assert pairing_grid([view], [(sig, requester.u), (zero_s, requester.u)],
                            toy) == [[True, False]]
        assert three_power_outcome(view, zero_s, requester.u, toy) is None


# toy groups with g of order q, for the grid's differential test
GRID_PARAMS = (GroupParams(p=23, q=11, g=2), GroupParams(p=47, q=23, g=2),
               GroupParams(p=59, q=29, g=4))


@st.composite
def toy_grids(draw):
    """A parameter set, views and (signature, u) columns with values in and
    out of range: r, s and u in [0, 2q + 1] (so 0, multiples of q and
    residues past q), z in [0, p + 1] (mostly outside the order-q subgroup)
    and T either in [0, 2p] or fitted to one view, so some cells pass."""
    params = draw(st.sampled_from(GRID_PARAMS))
    p, q, g = params.p, params.q, params.g
    scalar = st.integers(0, 2 * q + 1)
    views = draw(st.lists(st.builds(View, z=st.integers(0, p + 1), r_bar=scalar,
                                    s_bar=scalar), min_size=1, max_size=5))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        r, s, u = draw(scalar), draw(scalar), draw(scalar)
        fit = draw(st.none() | st.sampled_from(views))
        if fit is None or s % q == 0:
            T = draw(st.integers(0, 2 * p))
        else:
            beta = (fit.r_bar - r) % q
            alpha = (pow(s, -1, q) * u - (r + fit.s_bar)) % q
            T = pow(fit.z, r + beta, p) * pow(g, alpha, p) % p
        columns.append((BlindSignature(r=r, s=s, T=T), u))
    return params, views, columns


class TestPairingGrid:
    @settings(max_examples=400, deadline=None)
    @given(toy_grids())
    def test_every_cell_equals_per_cell_recovery(self, grid):
        params, views, columns = grid
        cells = pairing_grid(views, columns, params)
        assert cells == [[three_power_outcome(view, sig, u, params) is not None
                          for sig, u in columns] for view in views]

    def test_targets_at_zero_and_past_p(self, toy):
        # a cell compares z^(r + beta) * g^(-s_bar) with T * g^(-a); T = 0
        # matches exactly the rows whose z is 0 mod p, and a T at or past p
        # matches no reduced product
        p, q, g = toy.p, toy.q, toy.g
        r, s, u = 4, 7, 6
        views = [View(z=0, r_bar=5, s_bar=3), View(z=p, r_bar=5, s_bar=3),
                 View(z=9, r_bar=2, s_bar=8)]
        fit = views[2]
        alpha = (pow(s, -1, q) * u - (r + fit.s_bar)) % q
        T = pow(fit.z, r + (fit.r_bar - r) % q, p) * pow(g, alpha, p) % p
        columns = [(BlindSignature(r=r, s=s, T=t), u) for t in (0, p, T, T + p)]
        cells = pairing_grid(views, columns, toy)
        assert cells == [[three_power_outcome(view, sig, u, toy) is not None
                          for sig, u in columns] for view in views]
        assert cells == [[True, False, False, False],
                         [True, False, False, False],
                         [False, False, True, False]]


class TestVerifyRejection:
    def test_perturbed_inputs_rejected(self, desk, suite):
        rng = random.Random(9)
        key = keygen(desk, rng)
        m = b"tamper target"
        _, _, _, sig = complete_session(key, m, desk, suite, rng)
        assert verify(m, sig, key.y, desk, suite)
        assert not verify(m, BlindSignature(r=sig.r, s=sig.s, T=sig.T ^ 1), key.y, desk, suite)
        assert not verify(m, BlindSignature(r=sig.r ^ 1, s=sig.s, T=sig.T), key.y, desk, suite)
        assert not verify(m + b"x", sig, key.y, desk, suite)

    def test_non_canonical_re_encodings_rejected(self, desk, suite):
        # the same residues presented as s+q or T+p are different wire values
        # and must not verify
        rng = random.Random(10)
        key = keygen(desk, rng)
        m = b"strict ranges"
        _, _, _, sig = complete_session(key, m, desk, suite, rng)
        assert not verify(m, BlindSignature(r=sig.r, s=sig.s + desk.q, T=sig.T), key.y, desk, suite)
        assert not verify(m, BlindSignature(r=sig.r + desk.q, s=sig.s, T=sig.T), key.y, desk, suite)
        assert not verify(m, BlindSignature(r=sig.r, s=sig.s, T=sig.T + desk.p), key.y, desk, suite)
        assert not verify(m, BlindSignature(r=sig.r, s=0, T=sig.T), key.y, desk, suite)


class TestKeylessForgeries:
    """Signatures anyone can make without a key, which only the range checks
    refuse. Under a key y of order q, s = q gives K = y^q * g^(r * q mod q)
    = 1 and s = 0 gives K = 1 too, so r = h(1 || m) would verify; T = p or
    T = 0 makes the one-time key y * T = 0, so K = 0 and r = h(0 || m)
    would verify, and a text sealed under the shared element 0 would open."""

    M, BIND = b"never signed", b"to-carol"

    def test_scalar_boundaries_refused(self, desk, suite):
        key = keygen(desk, random.Random(62))
        q, forged_r = desk.q, commitment_hash(1, self.M, desk, suite)
        assert pow(key.y * pow(desk.g, forged_r, desk.p) % desk.p, q, desk.p) == 1
        for r, s in ((forged_r, q), (forged_r, 0), (q, q)):
            assert not sdss.verify(self.M, SdssSignature(r=r, s=s), key.y, desk, suite), (r, s)
            assert not verify(self.M, BlindSignature(r=r, s=s, T=1), key.y, desk, suite), (r, s)

    def test_T_boundaries_refused(self, desk, suite):
        rng = random.Random(63)
        signer, recipient = keygen(desk, rng), keygen(desk, rng)
        r = commitment_hash(0, self.M, desk, suite)
        sealed_r, c = zheng.seal(0, self.M, self.BIND, desk, suite)
        for T in (desk.p, 0):
            assert not verify(self.M, BlindSignature(r=r, s=1, T=T), signer.y, desk, suite), T
            text = blind_signcrypt.BlindSigncryptedText(c=c, r=sealed_r, s=1, T=T)
            with pytest.raises(TagMismatch):
                blind_signcrypt.unsigncrypt(text, recipient, signer.y, self.BIND, desk, suite)


class TestSubgroupAttacks:
    """A commitment times p - 1, an element of order 2, gives
    T = (-1)^r_bar * z^r_bar * g^alpha: whether the published T lies in the
    subgroup tells the signer the parity of r_bar, which links the signature
    to its session."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="not checked to lie in the order-q subgroup (ROADMAP item 1)")
    def test_negated_commitment_refused(self, desk, suite):
        rng = random.Random(13)
        key = keygen(desk, rng)
        _, commit = signer_commit(key, desk, rng)
        try:
            requester_challenge(MSG, desk.p - commit.z, key.y, desk, suite, rng)
            refused = False
        except BadCommit:
            refused = True
        assert refused, "requester_challenge accepted p - z"


class TestChosenTagForgery:
    """Anyone can pick t, set T = y_A^-1 * g^t mod p and sign with secret t:
    verification uses the key y_A * T = g^t, so the signature verifies under
    y_A with no signer involved. T lies in the order-q subgroup, so a subgroup
    check does not stop this; the scheme has to bind T to a signer session."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="T is not bound to a signer session")
    def test_chosen_T_forgery_rejected(self, desk, suite):
        rng = random.Random(11)
        signer = keygen(desk, rng)
        forger = keygen(desk, rng)  # t = forger.x, g^t = forger.y
        T = pow(signer.y, -1, desk.p) * forger.y % desk.p
        sig = sign(MSG, forger, desk, suite, rng)
        assert not verify(MSG, BlindSignature(r=sig.r, s=sig.s, T=T), signer.y, desk, suite)


# Sets small enough to enumerate every signature on one message, each with
# its number of signer views and of valid signatures with T in the subgroup
# and K != 1. The first three have cofactor 2; p = 67 has cofactor 6, so Z_67*
# holds an element of order 3 outside the subgroup.
EXHAUSTIVE = [
    (GroupParams(p=23, q=11, g=2), 100, 100),
    (GroupParams(p=47, q=23, g=2), 484, 462),
    (GroupParams(p=59, q=29, g=4), 784, 756),
    (GroupParams(p=67, q=11, g=64), 100, 100),
]


@functools.cache
def accepted_signatures(params):
    """(sig, K) for every (r, s, T) with 0 < r, s < q and 0 < T < p that
    `verify` accepts on b"m" under y_A = g^3, K = (y_A * T * g^r)^s mod p the
    element its hash check recovers."""
    p, q = params.p, params.q
    suite, y = std_suite(), pow(params.g, 3, p)
    accepted = []
    for T in range(1, p):
        for r in range(1, q):
            for s in range(1, q):
                sig = BlindSignature(r=r, s=s, T=T)
                if verify(b"m", sig, y, params, suite):
                    accepted.append((sig, key_power(y * T % p, r, s, params)))
    return accepted


def exhaustive_pairs(params):
    """Every view the signer with x = 3 can see, over every k_tilde and every
    r_bar, and every (sig, u) column whose signature `accepted_signatures`
    holds with T in the order-q subgroup and K = g^u != 1."""
    p, q, g = params.p, params.q, params.g
    log = {pow(g, e, p): e for e in range(q)}  # the subgroup, with discrete logs
    views = [View(z=pow(g, k, p), r_bar=r_bar, s_bar=(3 + r_bar * k) % q)
             for k in range(1, q) for r_bar in range(1, q)]
    columns = [(sig, log[K]) for sig, K in accepted_signatures(params)
               if sig.T in log and K != 1]
    return views, columns


class TestExhaustiveBlindness:
    """Perfect blindness as a checked statement at toy sizes: every view the
    signer with x = 3 can see, over every k_tilde and every r_bar, reconciles
    with every signature on b"m" that verifies with T in the order-q subgroup,
    so no view links to any signature. K = 1 would need u = 0, which no
    requester draws. The views include those whose z is 0 mod q (z = 29 at
    p = 59), which signer_commit never sends."""

    @pytest.mark.parametrize("params, n_views, n_signatures", EXHAUSTIVE,
                             ids=["p23", "p47", "p59", "p67"])
    def test_every_view_pairs_with_every_signature(self, params, n_views, n_signatures):
        views, columns = exhaustive_pairs(params)
        assert (len(views), len(columns)) == (n_views, n_signatures)
        assert all(all(row) for row in pairing_grid(views, columns, params))

    @pytest.mark.parametrize("params", [EXHAUSTIVE[0][0], EXHAUSTIVE[3][0]],
                             ids=["p23", "p67"])
    def test_exactly_one_blinding_pair(self, params):
        # counted from the three defining equations, not through pairing_grid
        # or three_power_outcome. beta appears only in r_bar = r + beta and
        # alpha only in s = u / (r + s_bar + alpha), so each is enumerated over
        # Z_q on its own and T = z^(r + beta) * g^alpha is tried on every pair
        p, q, g = params.p, params.q, params.g
        views, columns = exhaustive_pairs(params)
        for view in views:
            for sig, u in columns:
                betas = [b for b in range(q) if view.r_bar == (sig.r + b) % q]
                alphas = [a for a in range(q) if (sig.r + view.s_bar + a) % q != 0
                          and sig.s == u * pow(sig.r + view.s_bar + a, -1, q) % q]
                count = sum(pow(view.z, sig.r + b, p) * pow(g, a, p) % p == sig.T
                            for a in alphas for b in betas)
                assert count == 1, (view, sig, u)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="verify does not check that T lies in the order-q subgroup")
    def test_no_T_outside_the_subgroup_accepted(self):
        # today 110, 495, 770 and 536 signatures with T outside the subgroup verify
        outside = [sum(pow(sig.T, params.q, params.p) != 1
                       for sig, _ in accepted_signatures(params))
                   for params, _, _ in EXHAUSTIVE]
        assert outside == [0, 0, 0, 0]
