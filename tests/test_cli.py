import json
import subprocess
import sys

import pytest

from blindsigncrypt.cli import _state_key, main
from blindsigncrypt.crypto_suite import std_suite
from blindsigncrypt.wire_codec import armor, dearmor


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def setup(tmp_path):
    """toy23 params file plus signer (A) and recipient (C) key files."""
    paths = {
        "params": tmp_path / "toy.params",
        "key_a": tmp_path / "a.key", "pub_a": tmp_path / "a.pub",
        "key_c": tmp_path / "c.key", "pub_c": tmp_path / "c.pub",
        "dir": tmp_path,
    }
    assert run("--test-mode", "--seed", 1, "params", "gen",
               "--bits-p", 16, "--bits-q", 8, "--out", paths["params"]) == 0
    assert run("--test-mode", "--seed", 2, "keygen", "--params", paths["params"],
               "--out", paths["key_a"], "--pub-out", paths["pub_a"]) == 0
    assert run("--test-mode", "--seed", 3, "keygen", "--params", paths["params"],
               "--out", paths["key_c"], "--pub-out", paths["pub_c"]) == 0
    return paths


class TestParams:
    def test_gen_validate_roundtrip(self, tmp_path):
        out = tmp_path / "p.params"
        assert run("--test-mode", "--seed", 7, "params", "gen",
                   "--bits-p", 16, "--bits-q", 8, "--out", out) == 0
        assert run("params", "validate", "--params", out) == 0

    def test_named_sets_validate(self):
        assert run("params", "validate", "--params", "toy23") == 0

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("--test-mode", "--seed", 9, "params", "gen",
            "--bits-p", 16, "--bits-q", 8, "--out", a)
        run("--test-mode", "--seed", 9, "params", "gen",
            "--bits-p", 16, "--bits-q", 8, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_requires_test_mode(self, tmp_path):
        assert run("--seed", 1, "params", "validate", "--params", "toy23") == 2

    def test_missing_subcommand_is_usage_error(self):
        assert run("params") == 2


class TestSdssCli:
    def test_sign_verify_roundtrip(self, setup):
        msg = setup["dir"] / "m.txt"
        sig = setup["dir"] / "m.sig"
        msg.write_bytes(b"hello world")
        assert run("--test-mode", "--seed", 4, "sdss", "sign", "--params", setup["params"],
                   "--key", setup["key_a"], "--in", msg, "--out", sig) == 0
        assert run("sdss", "verify", "--params", setup["params"], "--pub", setup["pub_a"],
                   "--in", msg, "--sig", sig) == 0

    def test_tampered_signature_exits_1(self, setup):
        msg = setup["dir"] / "m.txt"
        sig = setup["dir"] / "m.sig"
        msg.write_bytes(b"hello world")
        run("--test-mode", "--seed", 4, "sdss", "sign", "--params", setup["params"],
            "--key", setup["key_a"], "--in", msg, "--out", sig)
        msg.write_bytes(b"hello w0rld")
        assert run("sdss", "verify", "--params", setup["params"], "--pub", setup["pub_a"],
                   "--in", msg, "--sig", sig) == 1


class TestZhengCli:
    def test_seal_open_roundtrip(self, setup):
        msg, ct, out = (setup["dir"] / n for n in ("z.msg", "z.ct", "z.out"))
        msg.write_bytes(b"sealed orders")
        assert run("--test-mode", "--seed", 5, "zheng", "seal", "--params", setup["params"],
                   "--key", setup["key_a"], "--recipient-pub", setup["pub_c"],
                   "--in", msg, "--out", ct) == 0
        assert run("zheng", "open", "--params", setup["params"], "--key", setup["key_c"],
                   "--sender-pub", setup["pub_a"], "--in", ct, "--out", out) == 0
        assert out.read_bytes() == b"sealed orders"

    def test_tampered_ciphertext_exits_1(self, setup):
        msg, ct, out = (setup["dir"] / n for n in ("z.msg", "z.ct", "z.out"))
        msg.write_bytes(b"sealed orders")
        run("--test-mode", "--seed", 5, "zheng", "seal", "--params", setup["params"],
            "--key", setup["key_a"], "--recipient-pub", setup["pub_c"],
            "--in", msg, "--out", ct)
        # bind_info defaults to the recipient identity, so a different
        # bind_info on open must fail
        assert run("zheng", "open", "--params", setup["params"], "--key", setup["key_c"],
                   "--sender-pub", setup["pub_a"], "--in", ct, "--out", out,
                   "--bind-info", "someone-else") == 1


class TestBlindSession:
    def test_five_step_flow(self, setup):
        d = setup["dir"]
        msg = d / "blind.msg"
        msg.write_bytes(b"blindly signed")
        assert run("--test-mode", "--seed", 11, "blind", "commit", "--params", setup["params"],
                   "--key", setup["key_a"], "--state-out", d / "a.state",
                   "--out", d / "commit.wire") == 0
        assert run("--test-mode", "--seed", 12, "blind", "challenge", "--params", setup["params"],
                   "--signer-pub", setup["pub_a"], "--in", msg,
                   "--commit", d / "commit.wire", "--state-out", d / "b.state",
                   "--out", d / "challenge.wire") == 0
        assert run("--test-mode", "--seed", 11, "blind", "respond", "--params", setup["params"],
                   "--key", setup["key_a"], "--state", d / "a.state",
                   "--challenge", d / "challenge.wire", "--out", d / "response.wire") == 0
        assert run("--test-mode", "--seed", 12, "blind", "finalize", "--params", setup["params"],
                   "--state", d / "b.state", "--response", d / "response.wire",
                   "--out", d / "final.sig") == 0
        assert run("blind", "verify", "--params", setup["params"],
                   "--signer-pub", setup["pub_a"], "--in", msg,
                   "--sig", d / "final.sig") == 0

    def test_state_requires_test_mode(self, setup):
        d = setup["dir"]
        assert run("blind", "commit", "--params", setup["params"],
                   "--key", setup["key_a"], "--state-out", d / "a.state",
                   "--out", d / "commit.wire") == 2
        assert not (d / "a.state").exists()

    def test_state_file_never_stores_nonce_in_clear(self, setup):
        d = setup["dir"]
        run("--test-mode", "--seed", 11, "blind", "commit", "--params", setup["params"],
            "--key", setup["key_a"], "--state-out", d / "a.state",
            "--out", d / "commit.wire")
        blob = dearmor((d / "a.state").read_text())
        assert b"k_tilde" not in blob  # encrypted, not plaintext JSON

    def test_state_needs_matching_seed(self, setup):
        d = setup["dir"]
        msg = d / "m"
        msg.write_bytes(b"x")
        run("--test-mode", "--seed", 11, "blind", "commit", "--params", setup["params"],
            "--key", setup["key_a"], "--state-out", d / "a.state",
            "--out", d / "commit.wire")
        run("--test-mode", "--seed", 12, "blind", "challenge", "--params", setup["params"],
            "--signer-pub", setup["pub_a"], "--in", msg, "--commit", d / "commit.wire",
            "--state-out", d / "b.state", "--out", d / "challenge.wire")
        assert run("--test-mode", "--seed", 999, "blind", "respond", "--params", setup["params"],
                   "--key", setup["key_a"], "--state", d / "a.state",
                   "--challenge", d / "challenge.wire", "--out", d / "r.wire") == 2

    def test_responding_twice_is_rejected(self, setup):
        d = setup["dir"]
        msg = d / "m"
        msg.write_bytes(b"x")
        run("--test-mode", "--seed", 11, "blind", "commit", "--params", setup["params"],
            "--key", setup["key_a"], "--state-out", d / "a.state",
            "--out", d / "commit.wire")
        run("--test-mode", "--seed", 12, "blind", "challenge", "--params", setup["params"],
            "--signer-pub", setup["pub_a"], "--in", msg, "--commit", d / "commit.wire",
            "--state-out", d / "b.state", "--out", d / "challenge.wire")
        assert run("--test-mode", "--seed", 11, "blind", "respond", "--params", setup["params"],
                   "--key", setup["key_a"], "--state", d / "a.state",
                   "--challenge", d / "challenge.wire", "--out", d / "r.wire") == 0
        # the state file now records the consumed session
        assert run("--test-mode", "--seed", 11, "blind", "respond", "--params", setup["params"],
                   "--key", setup["key_a"], "--state", d / "a.state",
                   "--challenge", d / "challenge.wire", "--out", d / "r2.wire") == 2


class TestBscSession:
    def full_round(self, setup, message: bytes, seed_a=21, seed_b=22):
        d = setup["dir"]
        msg = d / "bsc.msg"
        msg.write_bytes(message)
        steps = [
            ("--test-mode", "--seed", seed_a, "bsc", "commit", "--params", setup["params"],
             "--key", setup["key_a"], "--state-out", d / "a.state", "--out", d / "c1.wire"),
            ("--test-mode", "--seed", seed_b, "bsc", "challenge", "--params", setup["params"],
             "--recipient-pub", setup["pub_c"], "--in", msg, "--commit", d / "c1.wire",
             "--state-out", d / "b.state", "--out", d / "c2.wire"),
            ("--test-mode", "--seed", seed_a, "bsc", "respond", "--params", setup["params"],
             "--key", setup["key_a"], "--state", d / "a.state",
             "--challenge", d / "c2.wire", "--out", d / "c3.wire"),
            ("--test-mode", "--seed", seed_b, "bsc", "finalize", "--params", setup["params"],
             "--state", d / "b.state", "--response", d / "c3.wire",
             "--out", d / "sealed.wire"),
            ("bsc", "open", "--params", setup["params"], "--key", setup["key_c"],
             "--signer-pub", setup["pub_a"], "--in", d / "sealed.wire",
             "--out", d / "recovered.txt"),
        ]
        codes = [run(*s) for s in steps]
        return codes, d / "recovered.txt"

    def test_full_round_recovers_message(self, setup):
        # a finalize at 8-bit q occasionally aborts on a degenerate
        # denominator; restart the whole session with fresh seeds, as the
        # protocol demands
        for attempt in range(6):
            codes, recovered = self.full_round(setup, b"the whole point",
                                               seed_a=21 + attempt * 100,
                                               seed_b=22 + attempt * 100)
            if codes[3] == 0:
                assert codes == [0, 0, 0, 0, 0]
                assert recovered.read_bytes() == b"the whole point"
                return
        pytest.fail("every attempt hit a degenerate denominator")

    def test_deterministic_commit_bytes(self, setup):
        d = setup["dir"]
        run("--test-mode", "--seed", 77, "bsc", "commit", "--params", setup["params"],
            "--key", setup["key_a"], "--state-out", d / "s1", "--out", d / "w1")
        run("--test-mode", "--seed", 77, "bsc", "commit", "--params", setup["params"],
            "--key", setup["key_a"], "--state-out", d / "s2", "--out", d / "w2")
        assert (d / "w1").read_bytes() == (d / "w2").read_bytes()

    def test_wrong_bind_info_exits_1(self, setup):
        for attempt in range(6):
            codes, _ = self.full_round(setup, b"bound", seed_a=31 + attempt * 100,
                                       seed_b=32 + attempt * 100)
            if codes[3] == 0:
                d = setup["dir"]
                assert run("bsc", "open", "--params", setup["params"],
                           "--key", setup["key_c"], "--signer-pub", setup["pub_a"],
                           "--in", d / "sealed.wire", "--out", d / "no.txt",
                           "--bind-info", "not-carol") == 1
                return
        pytest.fail("every attempt hit a degenerate denominator")


class TestBench:
    def test_bsc_counts(self, capsys):
        assert run("--test-mode", "--seed", 1, "bench", "--scheme", "bsc",
                   "--params", "toy23") == 0
        out = capsys.readouterr().out
        assert "party A: 1 modexp" in out
        assert "party B: 3 modexp" in out
        assert "party C: 2 modexp" in out
        assert "strategy" in out

    def test_party_filter(self, capsys):
        assert run("--test-mode", "--seed", 1, "bench", "--scheme", "bsc",
                   "--params", "toy23", "--party", "B") == 0
        out = capsys.readouterr().out
        assert "party B: 3 modexp" in out
        assert "party A" not in out

    def test_blind_scheme(self, capsys):
        assert run("--test-mode", "--seed", 1, "bench", "--scheme", "blind",
                   "--params", "toy23") == 0
        out = capsys.readouterr().out
        assert "party A: 1 modexp" in out
        assert "party verify: 2 modexp" in out


class TestKeyFiles:
    @pytest.mark.parametrize("content, reason", [
        ('{"x": "5", "y": 8}', "must be integers"),
        ("[1, 2]", "must be integers"),
        ('{"x": 0, "y": 1}', "outside [1, q-1]"),
    ])
    def test_malformed_key_is_usage_error(self, setup, capsys, content, reason):
        key, msg = setup["dir"] / "bad.key", setup["dir"] / "m"
        key.write_text(content)
        msg.write_bytes(b"x")
        assert run("--test-mode", "--seed", 4, "sdss", "sign", "--params", setup["params"],
                   "--key", key, "--in", msg, "--out", setup["dir"] / "m.sig") == 2
        assert reason in capsys.readouterr().err
        assert not (setup["dir"] / "m.sig").exists()

    def test_public_half_must_match(self, setup, capsys):
        key = json.loads(setup["key_a"].read_text())
        bad = setup["dir"] / "bad.key"
        bad.write_text(json.dumps({"x": key["x"], "y": key["y"] + 1}))
        msg = setup["dir"] / "m"
        msg.write_bytes(b"x")
        assert run("--test-mode", "--seed", 4, "sdss", "sign", "--params", setup["params"],
                   "--key", bad, "--in", msg, "--out", setup["dir"] / "m.sig") == 2
        assert "not g^x mod p" in capsys.readouterr().err


class TestStateFiles:
    def commit_and_challenge(self, setup):
        d = setup["dir"]
        (d / "m").write_bytes(b"x")
        assert run("--test-mode", "--seed", 21, "bsc", "commit", "--params", setup["params"],
                   "--key", setup["key_a"], "--state-out", d / "a.state",
                   "--out", d / "c1.wire") == 0
        assert run("--test-mode", "--seed", 22, "bsc", "challenge", "--params", setup["params"],
                   "--recipient-pub", setup["pub_c"], "--in", d / "m",
                   "--commit", d / "c1.wire", "--state-out", d / "b.state",
                   "--out", d / "c2.wire") == 0
        return d

    def finalize(self, setup, state, seed):
        d = setup["dir"]
        return run("--test-mode", "--seed", seed, "bsc", "finalize", "--params", setup["params"],
                   "--state", state, "--response", d / "c2.wire", "--out", d / "out.wire")

    def test_signer_state_refused_by_finalize(self, setup, capsys):
        d = self.commit_and_challenge(setup)
        assert self.finalize(setup, d / "a.state", 21) == 2
        assert "holds SignerSession, expected BscRequesterSession" in capsys.readouterr().err

    def test_requester_state_refused_by_respond(self, setup, capsys):
        d = self.commit_and_challenge(setup)
        assert run("--test-mode", "--seed", 22, "bsc", "respond", "--params", setup["params"],
                   "--key", setup["key_a"], "--state", d / "b.state",
                   "--challenge", d / "c2.wire", "--out", d / "c3.wire") == 2
        assert "holds BscRequesterSession, expected SignerSession" in capsys.readouterr().err

    def test_old_dict_format_refused(self, setup, capsys):
        # the per-command dict layout that state files had before the codec
        d = self.commit_and_challenge(setup)
        old = {"role": "requester", "scheme": "bsc", "suite_id": "std-v1", "u": 3,
               "alpha": 1, "beta": 2, "r": 4, "r_bar": 6, "T": 5, "state": "challenged"}
        key, suite = _state_key(22), std_suite()
        ct = suite.cipher_encrypt(key, json.dumps(old).encode())
        (d / "old.state").write_text(armor(suite.keyed_hash(key, ct) + ct))
        assert self.finalize(setup, d / "old.state", 22) == 2
        assert "unrecognised state format" in capsys.readouterr().err

    def test_state_from_other_params_refused(self, setup, capsys):
        d = self.commit_and_challenge(setup)
        assert run("--test-mode", "--seed", 21, "bsc", "respond", "--params", "toy23",
                   "--key", setup["key_a"], "--state", d / "a.state",
                   "--challenge", d / "c2.wire", "--out", d / "c3.wire") == 2


class TestErrorPaths:
    def test_missing_file_is_usage_error(self, tmp_path):
        assert run("sdss", "verify", "--params", "toy23",
                   "--pub", tmp_path / "nope.pub", "--in", tmp_path / "nope.msg",
                   "--sig", tmp_path / "nope.sig") == 2

    def test_wrong_wire_type_is_usage_error(self, setup):
        # feeding a public key where a signature is expected
        msg = setup["dir"] / "m"
        msg.write_bytes(b"x")
        assert run("sdss", "verify", "--params", setup["params"],
                   "--pub", setup["pub_a"], "--in", msg,
                   "--sig", setup["pub_a"]) == 2

    def test_invalid_params_validate_exits_1(self, tmp_path):
        from blindsigncrypt.group_math import GroupParams
        from blindsigncrypt.wire_codec import armor, encode

        bad = tmp_path / "bad.params"
        bad.write_text(armor(encode(GroupParams(p=24, q=11, g=2), "std-v1")))
        assert run("params", "validate", "--params", bad) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "blindsigncrypt", "params", "validate",
         "--params", "toy23"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "parameters ok" in proc.stdout
