import builtins
import contextlib
import io
import json
import os
import random
import re
import stat
import subprocess
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsigncrypt import cli, group_math, sdss, zheng
from blindsigncrypt.blind_sdss import BlindSignature, CommitMsg, RequesterSession, ResponseMsg
from blindsigncrypt.blind_signcrypt import BlindSigncryptedText
from blindsigncrypt.cli import _state_key, build_parser, main
from blindsigncrypt.crypto_suite import std_suite, toy_suite
from blindsigncrypt.errors import (
    BadMagic,
    NonCanonicalInteger,
    TrailingBytes,
    Truncated,
    UnknownType,
)
from blindsigncrypt.group_math import GroupParams, desk512, int_to_bytes
from blindsigncrypt.wire_codec import PubKeyMsg, armor, dearmor, decode, encode
from blindsigncrypt.zheng import SigncryptedText

# JSON nested deeper than the json module's recursion limit (400 KB)
DEEP_JSON = b"[" * 200_000 + b"]" * 200_000


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

    def test_seedless_test_mode_uses_seed_0(self, tmp_path):
        keys = [tmp_path / name for name in ("a.key", "b.key", "zero.key")]
        for key, seed in zip(keys, ([], [], ["--seed", 0])):
            assert run("--test-mode", *seed, "keygen", "--params", "desk512",
                       "--out", key) == 0
        assert keys[0].read_bytes() == keys[1].read_bytes() == keys[2].read_bytes()

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

    def test_bind_info_is_the_arguments_bytes(self, setup):
        # "\udcff" is how Python passes the argv byte 0xff, which is not UTF-8
        msg, ct, out = (setup["dir"] / n for n in ("z.msg", "z.ct", "z.out"))
        msg.write_bytes(b"sealed orders")
        assert run("--test-mode", "--seed", 5, "zheng", "seal", "--params", setup["params"],
                   "--key", setup["key_a"], "--recipient-pub", setup["pub_c"],
                   "--in", msg, "--out", ct, "--bind-info", "\udcff") == 0
        assert run("zheng", "open", "--params", setup["params"], "--key", setup["key_c"],
                   "--sender-pub", setup["pub_a"], "--in", ct, "--out", out,
                   "--bind-info", "\udcff") == 0
        assert out.read_bytes() == b"sealed orders"
        params = cli._read_params(str(setup["params"]))
        sealed = zheng.signcrypt(b"sealed orders", cli._read_key(str(setup["key_a"]), params),
                                 cli._read_pub(str(setup["pub_c"]), params), b"\xff", params,
                                 std_suite(), random.Random(5))
        assert dearmor(ct.read_text()) == encode(sealed)

    def test_tampered_ciphertext_exits_1(self, setup, capsys):
        msg, ct, out = (setup["dir"] / n for n in ("z.msg", "z.ct", "z.out"))
        msg.write_bytes(b"sealed orders")
        run("--test-mode", "--seed", 5, "zheng", "seal", "--params", setup["params"],
            "--key", setup["key_a"], "--recipient-pub", setup["pub_c"],
            "--in", msg, "--out", ct)
        capsys.readouterr()
        # bind_info defaults to the recipient identity, so a different
        # bind_info on open must fail, and write no plaintext
        assert run("zheng", "open", "--params", setup["params"], "--key", setup["key_c"],
                   "--sender-pub", setup["pub_a"], "--in", ct, "--out", out,
                   "--bind-info", "someone-else") == 1
        assert "rejected: keyed-hash check failed" in capsys.readouterr().err
        assert not out.exists()


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

    def test_changed_message_exits_1(self, setup, capsys):
        self.test_five_step_flow(setup)
        d = setup["dir"]
        (d / "blind.msg").write_bytes(b"blindly signeD")
        capsys.readouterr()
        assert run("blind", "verify", "--params", setup["params"],
                   "--signer-pub", setup["pub_a"], "--in", d / "blind.msg",
                   "--sig", d / "final.sig") == 1
        assert "rejected: signature rejected" in capsys.readouterr().err

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
        with pytest.raises(BadMagic):  # encrypted, not the session's wire message
            decode(blob[32:])

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

    def test_finalizing_twice_is_rejected(self, setup, capsys):
        self.test_five_step_flow(setup)
        d = setup["dir"]
        capsys.readouterr()
        assert run("--test-mode", "--seed", 12, "blind", "finalize", "--params", setup["params"],
                   "--state", d / "b.state", "--response", d / "response.wire",
                   "--out", d / "again.sig") == 2
        assert "already unblinded" in capsys.readouterr().err
        assert not (d / "again.sig").exists()

    def test_unsent_response_still_spends_the_state(self, setup, capsys):
        # the state is saved before the response is written, so a response
        # that cannot be written leaves k_tilde spent all the same
        d = setup["dir"]
        msg = d / "m"
        msg.write_bytes(b"x")
        run("--test-mode", "--seed", 11, "blind", "commit", "--params", setup["params"],
            "--key", setup["key_a"], "--state-out", d / "a.state",
            "--out", d / "commit.wire")
        run("--test-mode", "--seed", 12, "blind", "challenge", "--params", setup["params"],
            "--signer-pub", setup["pub_a"], "--in", msg, "--commit", d / "commit.wire",
            "--state-out", d / "b.state", "--out", d / "challenge.wire")
        respond = ("--test-mode", "--seed", 11, "blind", "respond", "--params", setup["params"],
                   "--key", setup["key_a"], "--state", d / "a.state",
                   "--challenge", d / "challenge.wire", "--out")
        (d / "out-dir").mkdir()
        assert run(*respond, d / "out-dir") == 2
        capsys.readouterr()
        assert run(*respond, d / "r.wire") == 2
        assert "already responded" in capsys.readouterr().err
        assert not (d / "r.wire").exists()


class TestWrongResponse:
    """desk512: at the fixture's 8-bit q a wrong s verifies about once in q tries."""

    def test_finalize_refuses_and_spends_the_state(self, tmp_path, capsys):
        d = tmp_path
        (d / "m").write_bytes(b"blindly signed")
        assert run("--test-mode", "--seed", 2, "keygen", "--params", "desk512",
                   "--out", d / "a.key", "--pub-out", d / "a.pub") == 0
        assert run("--test-mode", "--seed", 11, "blind", "commit", "--params", "desk512",
                   "--key", d / "a.key", "--state-out", d / "a.state",
                   "--out", d / "commit.wire") == 0
        assert run("--test-mode", "--seed", 12, "blind", "challenge", "--params", "desk512",
                   "--signer-pub", d / "a.pub", "--in", d / "m", "--commit", d / "commit.wire",
                   "--state-out", d / "b.state", "--out", d / "challenge.wire") == 0
        assert run("--test-mode", "--seed", 11, "blind", "respond", "--params", "desk512",
                   "--key", d / "a.key", "--state", d / "a.state",
                   "--challenge", d / "challenge.wire", "--out", d / "response.wire") == 0
        response, _ = decode(dearmor((d / "response.wire").read_text()))
        off = ResponseMsg(s_bar=(response.s_bar + 1) % desk512().q)
        (d / "response.wire").write_text(armor(encode(off, "std-v1")))
        finalize = ("--test-mode", "--seed", 12, "blind", "finalize", "--params", "desk512",
                    "--state", d / "b.state", "--response", d / "response.wire",
                    "--out", d / "final.sig")
        capsys.readouterr()
        assert run(*finalize) == 1
        assert "rejected: unblinded signature failed verification" in capsys.readouterr().err
        assert not (d / "final.sig").exists()
        # the spent state was saved before the check
        assert run(*finalize) == 2
        assert "already unblinded" in capsys.readouterr().err
        assert not (d / "final.sig").exists()


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

    def test_finalizing_twice_is_rejected(self, setup, capsys):
        for attempt in range(6):
            seed_b = 52 + attempt * 100
            codes, _ = self.full_round(setup, b"once", seed_a=51 + attempt * 100, seed_b=seed_b)
            if codes[3] == 0:
                d = setup["dir"]
                capsys.readouterr()
                assert run("--test-mode", "--seed", seed_b, "bsc", "finalize",
                           "--params", setup["params"], "--state", d / "b.state",
                           "--response", d / "c3.wire", "--out", d / "again.wire") == 2
                assert "already unblinded" in capsys.readouterr().err
                assert not (d / "again.wire").exists()
                return
        pytest.fail("every attempt hit a degenerate denominator")

    def test_deterministic_commit_bytes(self, setup):
        d = setup["dir"]
        run("--test-mode", "--seed", 77, "bsc", "commit", "--params", setup["params"],
            "--key", setup["key_a"], "--state-out", d / "s1", "--out", d / "w1")
        run("--test-mode", "--seed", 77, "bsc", "commit", "--params", setup["params"],
            "--key", setup["key_a"], "--state-out", d / "s2", "--out", d / "w2")
        assert (d / "w1").read_bytes() == (d / "w2").read_bytes()

    def test_wrong_bind_info_exits_1(self, setup, capsys):
        for attempt in range(6):
            codes, _ = self.full_round(setup, b"bound", seed_a=31 + attempt * 100,
                                       seed_b=32 + attempt * 100)
            if codes[3] == 0:
                d = setup["dir"]
                capsys.readouterr()
                assert run("bsc", "open", "--params", setup["params"],
                           "--key", setup["key_c"], "--signer-pub", setup["pub_a"],
                           "--in", d / "sealed.wire", "--out", d / "no.txt",
                           "--bind-info", "not-carol") == 1
                assert "rejected: keyed-hash check failed" in capsys.readouterr().err
                assert not (d / "no.txt").exists()
                return
        pytest.fail("every attempt hit a degenerate denominator")

    def test_open_to_stdout_writes_only_the_message(self, setup):
        # the status line goes to standard error: through a pipe it used to
        # follow the plaintext, and redirected to a file, overwrite its start
        message = b"a plaintext longer than the status line"
        for attempt in range(6):
            codes, _ = self.full_round(setup, message, seed_a=71 + attempt * 100,
                                       seed_b=72 + attempt * 100)
            if codes[3] == 0:
                d = setup["dir"]
                argv = [sys.executable, "-m", "blindsigncrypt", "bsc", "open",
                        "--params", setup["params"], "--key", setup["key_c"],
                        "--signer-pub", setup["pub_a"], "--in", d / "sealed.wire",
                        "--out", "/dev/stdout"]
                piped = subprocess.run(argv, capture_output=True)
                assert piped.returncode == 0, piped.stderr
                assert piped.stdout == message
                assert f"recovered {len(message)} bytes".encode() in piped.stderr
                with open(d / "redirected.txt", "wb") as out:
                    assert subprocess.run(argv, stdout=out, stderr=subprocess.DEVNULL).returncode == 0
                assert (d / "redirected.txt").read_bytes() == message
                return
        pytest.fail("every attempt hit a degenerate denominator")

    def test_files_fit_the_limit_for_the_largest_message(self, setup):
        # armor doubles the message and a requester state file doubles it
        # again: no file may take more bytes per message byte than the limits
        # allow, or a session at MAX_MESSAGE_BYTES would write a file that
        # the next command refuses
        message = random.Random(5).randbytes(64 << 10)
        for attempt in range(6):
            codes, recovered = self.full_round(setup, message, seed_a=41 + attempt * 100,
                                               seed_b=42 + attempt * 100)
            if codes[3] == 0:
                assert codes == [0, 0, 0, 0, 0]
                assert recovered.read_bytes() == message
                written = [f for f in setup["dir"].iterdir() if f.suffix in (".state", ".wire")]
                assert len(written) == 6
                ratio = cli._MAX_FILE_BYTES / cli.MAX_MESSAGE_BYTES
                for f in written:
                    assert f.stat().st_size <= ratio * len(message), f.name
                return
        pytest.fail("every attempt hit a degenerate denominator")


class TestSpentRequesterState:
    """Nothing reads a requester session's message or ciphertext after
    finalize, so the spent state file keeps only the fixed fields."""

    @pytest.mark.parametrize("scheme", ["blind", "bsc"])
    def test_finalize_drops_the_payload(self, setup, capsys, scheme):
        d = setup["dir"]
        message = random.Random(6).randbytes(64 << 10)
        (d / "m").write_bytes(message)
        params = ("--params", setup["params"])
        pub = ("--signer-pub", setup["pub_a"]) if scheme == "blind" else \
            ("--recipient-pub", setup["pub_c"])
        ratio = cli._MAX_FILE_BYTES / cli.MAX_MESSAGE_BYTES
        for attempt in range(6):
            seed_a, seed_b = 61 + attempt * 100, 62 + attempt * 100
            assert run("--test-mode", "--seed", seed_a, scheme, "commit", *params,
                       "--key", setup["key_a"], "--state-out", d / "a.state",
                       "--out", d / "commit.wire") == 0
            assert run("--test-mode", "--seed", seed_b, scheme, "challenge", *params, *pub,
                       "--in", d / "m", "--commit", d / "commit.wire",
                       "--state-out", d / "b.state", "--out", d / "challenge.wire") == 0
            assert (d / "b.state").stat().st_size <= ratio * len(message)
            assert run("--test-mode", "--seed", seed_a, scheme, "respond", *params,
                       "--key", setup["key_a"], "--state", d / "a.state",
                       "--challenge", d / "challenge.wire", "--out", d / "response.wire") == 0
            finalize = ("--test-mode", "--seed", seed_b, scheme, "finalize", *params,
                        "--state", d / "b.state", "--response", d / "response.wire")
            if run(*finalize, "--out", d / "final.wire") != 0:
                continue  # a degenerate denominator at 8-bit q: restart the session
            assert (d / "b.state").stat().st_size < 1024
            # the output still carries the message or ciphertext
            if scheme == "blind":
                assert run("blind", "verify", *params, *pub, "--in", d / "m",
                           "--sig", d / "final.wire") == 0
            else:
                assert run("bsc", "open", *params, "--key", setup["key_c"],
                           "--signer-pub", setup["pub_a"], "--in", d / "final.wire",
                           "--out", d / "recovered") == 0
                assert (d / "recovered").read_bytes() == message
            capsys.readouterr()
            assert run(*finalize, "--out", d / "again.wire") == 2
            assert "already unblinded" in capsys.readouterr().err
            assert not (d / "again.wire").exists()
            return
        pytest.fail("every attempt hit a degenerate denominator")


class TestOutputFiles:
    """Outputs are overwritten in place and cut to length, never opened with
    O_TRUNC; key and state files are readable by their owner only."""

    def session(self, setup, message: bytes, first_attempt: int) -> int:
        """A full bsc round in setup's directory; returns the attempt that ran."""
        for attempt in range(first_attempt, first_attempt + 6):
            codes, recovered = TestBscSession().full_round(
                setup, message, seed_a=61 + attempt * 100, seed_b=62 + attempt * 100)
            if codes[3] == 0:
                assert codes == [0, 0, 0, 0, 0]
                assert recovered.read_bytes() == message
                return attempt
        pytest.fail("every attempt hit a degenerate denominator")

    def outputs(self, d):
        return {f.name: f.read_bytes() for f in d.iterdir()
                if f.suffix in (".state", ".wire") or f.name == "recovered.txt"}

    def test_shorter_session_leaves_no_old_tail(self, setup):
        d = setup["dir"]
        self.session(setup, random.Random(6).randbytes(300), 0)
        first = self.outputs(d)
        attempt = self.session(setup, b"short", 10)
        second = self.outputs(d)
        assert second["recovered.txt"] == b"short"
        # the files that hold m; the spent b.state keeps none, and the
        # comparison below checks that it too was cut to length
        for name in ("sealed.wire", "recovered.txt"):
            assert len(second[name]) < len(first[name]), name
        # the same round in files created afresh writes the same bytes
        for name in second:
            (d / name).unlink()
        assert self.session(setup, b"short", attempt) == attempt
        assert self.outputs(d) == second

    def test_shorter_key_files_leave_no_old_tail(self, setup):
        d = setup["dir"]

        def keygen(params, key, pub):
            return run("--test-mode", "--seed", 8, "keygen", "--params", params,
                       "--out", d / key, "--pub-out", d / pub)

        assert keygen("desk512", "k.key", "k.pub") == 0
        long = (d / "k.key").read_bytes(), (d / "k.pub").read_bytes()
        assert keygen(setup["params"], "k.key", "k.pub") == 0
        assert keygen(setup["params"], "fresh.key", "fresh.pub") == 0
        for name, old in zip(("key", "pub"), long):
            now = (d / f"k.{name}").read_bytes()
            assert now == (d / f"fresh.{name}").read_bytes()
            assert len(now) < len(old)

    def sealed(self, setup):
        d = setup["dir"]
        (d / "z.msg").write_bytes(b"sealed orders")
        assert run("--test-mode", "--seed", 5, "zheng", "seal", "--params", setup["params"],
                   "--key", setup["key_a"], "--recipient-pub", setup["pub_c"],
                   "--in", d / "z.msg", "--out", d / "z.ct") == 0
        return ("zheng", "open", "--params", setup["params"], "--key", setup["key_c"],
                "--sender-pub", setup["pub_a"], "--in", d / "z.ct")

    def test_out_dev_null(self, setup):
        before = os.stat("/dev/null")
        assert run(*self.sealed(setup), "--out", "/dev/null") == 0
        assert run("--test-mode", "--seed", 9, "keygen", "--params", setup["params"],
                   "--out", "/dev/null", "--pub-out", "/dev/null") == 0
        after = os.stat("/dev/null")
        assert (after.st_mode, after.st_rdev) == (before.st_mode, before.st_rdev)

    def test_symlinked_out_writes_through(self, setup):
        d = setup["dir"]
        target, link = d / "target.txt", d / "link.txt"
        target.write_bytes(b"an older and much longer plaintext")
        link.symlink_to(target)
        assert run(*self.sealed(setup), "--out", link) == 0
        assert link.is_symlink()
        assert target.read_bytes() == b"sealed orders"

    @pytest.fixture
    def umask_022(self):
        old = os.umask(0o022)
        try:
            yield
        finally:
            os.umask(old)

    def mode(self, path):
        return stat.S_IMODE(os.stat(path).st_mode)

    @pytest.mark.parametrize("existing", [None, 0o644, 0o666], ids=["new", "0644", "0666"])
    def test_key_and_state_files_are_owner_only(self, setup, umask_022, existing):
        d = setup["dir"]
        key, pub, state = d / "k.key", d / "k.pub", d / "k.state"
        if existing is not None:
            for path in (key, pub, state):
                path.write_bytes(b"x" * 5000)
                path.chmod(existing)
        assert run("--test-mode", "--seed", 8, "keygen", "--params", setup["params"],
                   "--out", key, "--pub-out", pub) == 0
        assert run("--test-mode", "--seed", 21, "bsc", "commit", "--params", setup["params"],
                   "--key", key, "--state-out", state, "--out", d / "c1.wire") == 0
        assert self.mode(key) == 0o600
        assert self.mode(state) == 0o600
        # public outputs keep the mode open() would give them
        assert self.mode(pub) == (existing or 0o644)
        assert self.mode(d / "c1.wire") == 0o644

    def test_no_output_is_opened_with_o_trunc(self, setup, monkeypatch):
        # cutting with O_TRUNC made ext4 flush every small output at close;
        # catch any open that truncates: os.open with O_TRUNC, or a path
        # opened in a "w" mode through builtins.open or io.open (pathlib)
        d = setup["dir"]
        (d / "m").write_bytes(b"x")
        created, truncating = set(), []
        real_os_open, real_open, real_io_open = os.open, builtins.open, io.open

        def os_open(path, flags, *rest, **kwargs):
            if flags & os.O_CREAT:
                created.add(os.fspath(path))
            if flags & os.O_TRUNC:
                truncating.append(("os.open", path))
            return real_os_open(path, flags, *rest, **kwargs)

        def checked(real):
            def open_(file, mode="r", *rest, **kwargs):
                if not isinstance(file, int) and "w" in mode:
                    truncating.append((mode, file))
                return real(file, mode, *rest, **kwargs)
            return open_

        monkeypatch.setattr(os, "open", os_open)
        monkeypatch.setattr(builtins, "open", checked(real_open))
        monkeypatch.setattr(io, "open", checked(real_io_open))
        p, ka, pa, kc, pc = (str(setup[k]) for k in ("params", "key_a", "pub_a",
                                                      "key_c", "pub_c"))
        commands = [
            ("--test-mode", "--seed", 1, "params", "gen", "--bits-p", 16, "--bits-q", 8,
             "--out", d / "p.params"),
            ("--test-mode", "--seed", 8, "keygen", "--params", p, "--out", d / "k.key",
             "--pub-out", d / "k.pub"),
            ("--test-mode", "--seed", 4, "sdss", "sign", "--params", p, "--key", ka,
             "--in", d / "m", "--out", d / "m.sig"),
            ("--test-mode", "--seed", 5, "zheng", "seal", "--params", p, "--key", ka,
             "--recipient-pub", pc, "--in", d / "m", "--out", d / "z.ct"),
            ("zheng", "open", "--params", p, "--key", kc, "--sender-pub", pa,
             "--in", d / "z.ct", "--out", d / "z.out"),
        ]
        for argv in commands:
            assert run(*argv) == 0
        self.session(setup, b"x", 0)  # also writes its message file, which is no output
        outputs = {str(d / name) for name in (
            "p.params", "k.key", "k.pub", "m.sig", "z.ct", "z.out", "a.state", "b.state",
            "c1.wire", "c2.wire", "c3.wire", "sealed.wire", "recovered.txt")}
        assert outputs <= created
        assert [(how, path) for how, path in truncating if os.fspath(path) in outputs] == []

    def test_short_writes_are_repeated(self, tmp_path, monkeypatch):
        real_write, sizes = os.write, []

        def write(fd, data):
            sizes.append(real_write(fd, data[:7]))
            return sizes[-1]

        data = random.Random(7).randbytes(1000)
        monkeypatch.setattr(cli.os, "write", write)
        cli._write_output(tmp_path / "out", data)
        assert (tmp_path / "out").read_bytes() == data
        assert len(sizes) == 143

    @pytest.mark.parametrize("old_size", [5000, 10], ids=["longer", "shorter"])
    def test_overwrite_fits_the_new_length(self, tmp_path, old_size):
        path, data = tmp_path / "out", random.Random(8).randbytes(700)
        path.write_bytes(b"x" * old_size)
        cli._write_output(path, data)
        assert path.read_bytes() == data


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

    def test_party_the_scheme_lacks_refused(self, capsys):
        assert run("--test-mode", "--seed", 1, "bench", "--scheme", "bsc",
                   "--params", "toy23", "--party", "verify") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scheme bsc has no party verify; its parties are A, B, C" in captured.err

    def test_blind_scheme(self, capsys):
        assert run("--test-mode", "--seed", 1, "bench", "--scheme", "blind",
                   "--params", "toy23") == 0
        out = capsys.readouterr().out
        assert "party A: 1 modexp" in out
        assert "party verify: 2 modexp" in out

    @pytest.mark.parametrize("scheme, name, receiver", [("bsc", "blind_signcrypt", "C"),
                                                        ("blind", "blind_sdss", "verify")])
    @pytest.mark.parametrize("party", [None, "A", "B", "receiver"])
    def test_output_bytes(self, capsys, scheme, name, receiver, party):
        party = receiver if party == "receiver" else party
        lines = {"A": "party A: 1 modexp", "B": "party B: 3 modexp",
                 receiver: f"party {receiver}: 2 modexp"}
        assert run("--test-mode", "--seed", 1, "bench", "--scheme", scheme, "--params", "toy23",
                   *(["--party", party] if party else [])) == 0
        assert capsys.readouterr().out == "".join(f"{line}\n" for line in (
            f"scheme: {name}",
            "multi-exponentiation strategy: naive: every power counted separately "
            "(no multi-exponentiation)",
            *([lines[party]] if party else lines.values())))


class TestKeyFiles:
    @pytest.mark.parametrize("content, reason", [
        ('{"x": "5", "y": 8}', "must be integers"),
        ("[1, 2]", "must be integers"),
        ('{"x": 0, "y": 1}', "outside [1, q-1]"),
        ("not json", "bad.key is not a key file: Expecting value"),
        (b"\xff\xfe", "bad.key is not a key file: Expecting value"),
    ])
    def test_malformed_key_is_usage_error(self, setup, capsys, content, reason):
        key, msg = setup["dir"] / "bad.key", setup["dir"] / "m"
        key.write_bytes(content if isinstance(content, bytes) else content.encode())
        msg.write_bytes(b"x")
        assert run("--test-mode", "--seed", 4, "sdss", "sign", "--params", setup["params"],
                   "--key", key, "--in", msg, "--out", setup["dir"] / "m.sig") == 2
        assert reason in capsys.readouterr().err
        assert not (setup["dir"] / "m.sig").exists()

    def test_deeply_nested_key_is_usage_error(self, setup, capsys):
        key, msg = setup["dir"] / "deep.key", setup["dir"] / "m"
        key.write_bytes(DEEP_JSON)
        msg.write_bytes(b"x")
        assert run("--test-mode", "--seed", 4, "sdss", "sign", "--params", setup["params"],
                   "--key", key, "--in", msg, "--out", setup["dir"] / "m.sig") == 2
        assert f"{key} nests its JSON too deeply" in capsys.readouterr().err

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
        assert "does not start with BSC1" in capsys.readouterr().err

    def test_state_from_other_params_refused(self, setup, capsys):
        # finalize reads no key file, so the state's own params check refuses
        d = self.commit_and_challenge(setup)
        assert run("--test-mode", "--seed", 22, "bsc", "finalize", "--params", "toy23",
                   "--state", d / "b.state", "--response", d / "c2.wire",
                   "--out", d / "out.wire") == 2
        assert "b.state was made under other group parameters" in capsys.readouterr().err
        assert not (d / "out.wire").exists()

    @pytest.mark.parametrize("command", ["respond", "finalize"])
    def test_loading_state_needs_test_mode(self, setup, capsys, command):
        d = self.commit_and_challenge(setup)
        flags = {"respond": ("--key", setup["key_a"], "--state", d / "a.state",
                             "--challenge", d / "c2.wire"),
                 "finalize": ("--state", d / "b.state", "--response", d / "c2.wire")}[command]
        assert run("bsc", command, "--params", setup["params"], *flags,
                   "--out", d / "out.wire") == 2
        assert "session state files exist only under --test-mode" in capsys.readouterr().err
        assert not (d / "out.wire").exists()


def signer_plaintext(params, k_tilde: bytes, spent: bytes) -> bytes:
    """A SignerSession wire message (0x0A) built field by field from raw
    integer payloads, so that a test can write bytes encode() never would."""
    fields = [b"std-v1", *(int_to_bytes(v) for v in (params.p, params.q, params.g)),
              k_tilde, spent]
    return b"BSC1\x0a" + b"".join(len(f).to_bytes(2, "big") + f for f in fields)


def pad_q(pt: bytes, session) -> bytes:
    """pt, a session's wire message, with params.q given a leading zero byte;
    q follows the 11-byte header and the field of p."""
    at = 11 + 2 + len(int_to_bytes(session.params.p))
    q = int_to_bytes(session.params.q)
    return pt[:at] + (len(q) + 1).to_bytes(2, "big") + b"\x00" + q + pt[at + 2 + len(q):]


class TestMalformedStateFields:
    """The state key derives from the public --seed, so a state file with a
    valid tag can hold any plaintext; one that is not the expected session's
    canonical wire message exits 2 naming the file, not with a traceback."""

    def plaintext(self, path, seed) -> bytes:
        return std_suite().cipher_encrypt(_state_key(seed), dearmor(path.read_text())[32:])

    def rewrite(self, path, seed, plaintext: bytes) -> None:
        """Write plaintext to path as a state file under the seed's state key."""
        key, suite = _state_key(seed), std_suite()
        ct = suite.cipher_encrypt(key, plaintext)
        path.write_text(armor(suite.keyed_hash(key, ct) + ct))

    def respond(self, setup, d):
        return run("--test-mode", "--seed", 21, "bsc", "respond", "--params", setup["params"],
                   "--key", setup["key_a"], "--state", d / "a.state",
                   "--challenge", d / "c2.wire", "--out", d / "c3.wire")

    def edit(self, path, seed, edit, error, expected: str) -> str:
        """Replace path's plaintext pt, which decodes to s, with edit(pt, s);
        return what loading the file must print. error is the WireError the
        edit makes, or None for a message of another class than expected."""
        plaintext = self.plaintext(path, seed)
        edited = edit(plaintext, decode(plaintext)[0])
        self.rewrite(path, seed, edited)
        if error is None:
            return f"{path} holds {type(decode(edited)[0]).__name__}, expected {expected}"
        with pytest.raises(error) as exc:
            decode(edited)
        return f"{path}: {exc.value}"

    def assert_refused(self, code, capsys, named, out):
        assert code == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, error", [
        (lambda pt, s: encode(CommitMsg(z=5)), None),
        (lambda pt, s: pt[:-1], Truncated),
        (lambda pt, s: signer_plaintext(s.params, int_to_bytes(s.k_tilde), b"\x02"),
         NonCanonicalInteger),
        (lambda pt, s: pt + b"\x00", TrailingBytes),
        (lambda pt, s: signer_plaintext(s.params, b"\x00" + int_to_bytes(s.k_tilde), b""),
         NonCanonicalInteger),
        (lambda pt, s: pt[:4] + b"\x7f" + pt[5:], UnknownType),
    ], ids=["commit-msg", "cut-by-one", "spent-2", "trailing-byte", "k-tilde-leading-zero",
            "unknown-type"])
    def test_signer_state_refused(self, setup, capsys, edit, error):
        d = TestStateFiles().commit_and_challenge(setup)
        named = self.edit(d / "a.state", 21, edit, error, "SignerSession")
        capsys.readouterr()
        self.assert_refused(self.respond(setup, d), capsys, named, d / "c3.wire")

    @pytest.mark.parametrize("edit, error", [
        (lambda pt, s: encode(RequesterSession(s.params, s.u, s.alpha, s.beta, s.r, s.T,
                                               s.spent, m=s.c, signer_pub=5)), None),
        (lambda pt, s: pt[:-len(s.c) - 4] + (len(s.c) + 1).to_bytes(4, "big") + s.c,
         Truncated),
        (pad_q, NonCanonicalInteger),
    ], ids=["blind-requester-session", "c-longer-than-declared", "q-leading-zero"])
    def test_requester_state_refused(self, setup, capsys, edit, error):
        d = TestStateFiles().commit_and_challenge(setup)
        named = self.edit(d / "b.state", 22, edit, error, "BscRequesterSession")
        capsys.readouterr()
        code = TestStateFiles().finalize(setup, d / "b.state", 22)
        self.assert_refused(code, capsys, named, d / "out.wire")

    def test_rewrite_with_the_same_value_still_loads(self, setup):
        d = TestStateFiles().commit_and_challenge(setup)
        plaintext = self.plaintext(d / "a.state", 21)
        session, suite_id = decode(plaintext)
        assert encode(session, suite_id) == plaintext
        assert signer_plaintext(session.params, int_to_bytes(session.k_tilde), b"") == plaintext
        self.rewrite(d / "a.state", 21, encode(session, suite_id))
        assert self.respond(setup, d) == 0


class TestParamFiles:
    """A parameter file is validated whenever a command reads it."""

    BAD = [
        (GroupParams(p=24, q=11, g=2), "p = 24 failed the primality test"),
        (GroupParams(p=23, q=11, g=5), "g = 5 does not have order dividing q"),
    ]

    def write(self, tmp_path, params):
        path = tmp_path / "bad.params"
        path.write_text(armor(encode(params, "std-v1")))
        return path

    @pytest.fixture
    def no_primality_test(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a primality test ran")
        monkeypatch.setattr(group_math, "is_probable_prime", refuse)

    def test_wide_p_refused_before_any_primality_test(self, tmp_path, capsys, no_primality_test):
        bad = self.write(tmp_path, GroupParams(p=(1 << cli.MAX_P_BITS) + 1, q=11, g=2))
        assert run("params", "validate", "--params", bad) == 2
        assert (f"{bad}: p has {cli.MAX_P_BITS + 1} bits, above the limit of {cli.MAX_P_BITS}"
                in capsys.readouterr().err)

    def test_p_at_the_limit_is_tested(self, tmp_path, capsys, monkeypatch):
        tested = []
        monkeypatch.setattr(group_math, "is_probable_prime", lambda n, rng=None: tested.append(n))
        p = (1 << cli.MAX_P_BITS) - 1
        assert run("params", "validate", "--params", self.write(tmp_path, GroupParams(p, 11, 2))) == 1
        assert tested == [p]
        assert f"invalid: p = a {cli.MAX_P_BITS}-bit integer failed" in capsys.readouterr().err

    @pytest.mark.parametrize("q", [0, 1, 23, 1 << 9000], ids=["0", "1", "p", "wide"])
    def test_q_outside_the_group_refused_before_any_primality_test(self, tmp_path, capsys,
                                                                   no_primality_test, q):
        bad = self.write(tmp_path, GroupParams(p=23, q=q, g=2))
        assert run("keygen", "--params", bad, "--out", tmp_path / "a.key") == 2
        assert f"{bad}: q is outside [2, p-1]" in capsys.readouterr().err
        assert not (tmp_path / "a.key").exists()

    def test_gen_refuses_wide_p(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "generate_params", None)  # any call fails the test
        out = tmp_path / "p.params"
        assert run("params", "gen", "--bits-p", cli.MAX_P_BITS + 1, "--out", out) == 2
        assert f"--bits-p {cli.MAX_P_BITS + 1} is above the limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("params, reason", BAD)
    def test_keygen_refuses(self, tmp_path, capsys, params, reason):
        bad = self.write(tmp_path, params)
        assert run("--test-mode", "--seed", 1, "keygen", "--params", bad,
                   "--out", tmp_path / "a.key") == 2
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "a.key").exists()

    @pytest.mark.parametrize("params, reason", BAD)
    def test_session_command_refuses(self, setup, capsys, params, reason):
        d = setup["dir"]
        bad = self.write(d, params)
        assert run("--test-mode", "--seed", 21, "bsc", "commit", "--params", bad,
                   "--key", setup["key_a"], "--state-out", d / "a.state",
                   "--out", d / "c1.wire") == 2
        assert reason in capsys.readouterr().err
        assert not (d / "a.state").exists()

    @pytest.mark.parametrize("params, reason", BAD)
    def test_validate_still_exits_1(self, tmp_path, capsys, params, reason):
        assert run("params", "validate", "--params", self.write(tmp_path, params)) == 1
        assert f"invalid: {reason}" in capsys.readouterr().err


class TestInputLimit:
    """Files over the input limits are refused before they are read; a read
    allocates by the file's size, not by the limit."""

    def sparse(self, path, size):
        with open(path, "wb") as f:
            f.truncate(size)  # a hole: nothing of that size is written
        return path

    def test_message_over_limit(self, setup, capsys):
        d = setup["dir"]
        big = self.sparse(d / "big.msg", cli.MAX_MESSAGE_BYTES + 1)
        assert run("--test-mode", "--seed", 5, "zheng", "seal", "--params", setup["params"],
                   "--key", setup["key_a"], "--recipient-pub", setup["pub_c"],
                   "--in", big, "--out", d / "z.ct") == 2
        err = capsys.readouterr().err
        assert str(big) in err and f"limit of {cli.MAX_MESSAGE_BYTES} bytes" in err
        assert not (d / "z.ct").exists()

    def test_size_checked_before_reading(self, tmp_path, monkeypatch):
        # the reported size alone refuses the file: its one byte is never read
        path = tmp_path / "m"
        path.write_bytes(b"x")
        real_fstat = os.fstat
        monkeypatch.setattr(cli.os, "fstat", lambda fd: os.stat_result(
            real_fstat(fd)[:6] + (cli.MAX_MESSAGE_BYTES + 1,) + real_fstat(fd)[7:10]))
        with pytest.raises(cli.UsageFailure, match="larger than the limit"):
            cli._read_input(path, cli.MAX_MESSAGE_BYTES)

    def test_message_at_limit_is_read(self, tmp_path):
        path = self.sparse(tmp_path / "m", cli.MAX_MESSAGE_BYTES)
        assert len(cli._read_input(path, cli.MAX_MESSAGE_BYTES)) == cli.MAX_MESSAGE_BYTES

    def test_armored_file_over_limit(self, setup, capsys):
        d = setup["dir"]
        big = self.sparse(d / "big.wire", cli._MAX_FILE_BYTES + 1)
        assert run("zheng", "open", "--params", setup["params"], "--key", setup["key_c"],
                   "--sender-pub", setup["pub_a"], "--in", big, "--out", d / "z.out") == 2
        err = capsys.readouterr().err
        assert str(big) in err and f"limit of {cli._MAX_FILE_BYTES} bytes" in err
        assert not (d / "z.out").exists()

    def test_unsized_input_is_read_only_to_the_limit(self, setup, capsys, monkeypatch):
        # a character device reports size 0 and never ends
        monkeypatch.setattr(cli, "MAX_MESSAGE_BYTES", 1024)
        d = setup["dir"]
        assert run("--test-mode", "--seed", 4, "sdss", "sign", "--params", setup["params"],
                   "--key", setup["key_a"], "--in", "/dev/zero", "--out", d / "m.sig") == 2
        assert "limit of 1024 bytes" in capsys.readouterr().err

    def test_read_allocates_by_the_file_not_the_limit(self, tmp_path):
        path = tmp_path / "m"
        path.write_bytes(random.Random(9).randbytes(300))
        tracemalloc.start()
        try:
            assert len(cli._read_input(path)) == 300
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, f"{peak} bytes allocated to read 300"

    @pytest.fixture
    def pipe(self):
        """Makes a path that reads given bytes through a pipe, which reports
        no size."""
        fds = []

        def make(data: bytes) -> str:
            r, w = os.pipe()
            os.write(w, data)  # fits in the pipe's buffer, so no reader is needed yet
            os.close(w)
            fds.append(r)
            return f"/dev/fd/{r}"

        yield make
        for fd in fds:
            os.close(fd)

    def test_pipe_read_allocates_by_the_input(self, pipe):
        data = random.Random(9).randbytes(300)
        path = pipe(data)
        tracemalloc.start()
        try:
            assert cli._read_input(path, cli.MAX_MESSAGE_BYTES) == data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{peak} bytes allocated to read 300 from a pipe"

    def test_large_pipe_is_held_once(self):
        # 8 MB is more than a pipe buffers, so a writer thread feeds it
        data = random.Random(9).randbytes(8_000_000)
        r, w = os.pipe()

        def feed():
            view = memoryview(data)
            while view:
                view = view[os.write(w, view):]
            os.close(w)

        writer = threading.Thread(target=feed)
        writer.start()
        tracemalloc.start()
        try:
            assert cli._read_input(f"/dev/fd/{r}", cli.MAX_MESSAGE_BYTES) == data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            writer.join(timeout=30)
            os.close(r)
        assert not writer.is_alive()
        assert peak <= 1.25 * len(data), f"{peak} bytes allocated to read {len(data)} from a pipe"

    def test_pipe_over_limit_is_refused(self, pipe):
        limit = 10_000
        with pytest.raises(cli.UsageFailure, match=f"larger than the limit of {limit} bytes"):
            cli._read_input(pipe(b"p" * (limit + 1)), limit)
        assert cli._read_input(pipe(b"a" * limit), limit) == b"a" * limit

    @pytest.mark.parametrize("reported", [lambda size: 0, lambda size: size - 1],
                             ids=["size-0", "size-1"])
    def test_under_reported_size_reads_on(self, tmp_path, monkeypatch, reported):
        # a pipe reports no size, and a file may grow after fstat: the probe
        # byte arrives and the read goes on to the limit
        limit = 1000
        over, at = tmp_path / "over", tmp_path / "at"
        over.write_bytes(b"o" * (limit + 1))
        at.write_bytes(b"a" * limit)
        real_fstat = os.fstat

        def fstat(fd):
            st = real_fstat(fd)
            return os.stat_result(st[:6] + (reported(st.st_size),) + st[7:10])

        monkeypatch.setattr(cli.os, "fstat", fstat)
        with pytest.raises(cli.UsageFailure, match=f"larger than the limit of {limit} bytes"):
            cli._read_input(over, limit)
        assert cli._read_input(at, limit) == b"a" * limit


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

    def test_pub_file_not_text_is_usage_error(self, setup, capsys):
        d = setup["dir"]
        pub, msg = d / "bad.pub", d / "m"
        pub.write_bytes(b"\xff\xfe")
        msg.write_bytes(b"x")
        assert run("--test-mode", "--seed", 5, "zheng", "seal", "--params", setup["params"],
                   "--key", setup["key_a"], "--recipient-pub", pub,
                   "--in", msg, "--out", d / "z.ct") == 2
        assert f"{pub} is not an armored file" in capsys.readouterr().err
        assert not (d / "z.ct").exists()

    @pytest.mark.parametrize("content, reason", [
        (b"hello\n", " is not an armored file: missing armor header line"),
        (armor(b"BSC2" + encode(PubKeyMsg(y=5), "std-v1")[4:]).encode(),
         ": input does not start with BSC1"),
    ], ids=["not-armor", "wrong-magic"])
    def test_undecodable_pub_file_is_named(self, setup, capsys, content, reason):
        d = setup["dir"]
        pub, msg = d / "bad.pub", d / "m"
        pub.write_bytes(content)
        msg.write_bytes(b"x")
        assert run("--test-mode", "--seed", 5, "zheng", "seal", "--params", setup["params"],
                   "--key", setup["key_a"], "--recipient-pub", pub,
                   "--in", msg, "--out", d / "z.ct") == 2
        assert f"error: {pub}{reason}" in capsys.readouterr().err
        assert not (d / "z.ct").exists()

    @pytest.mark.parametrize("command, held", [
        ("open", SigncryptedText(c=b"x", r=1, s=1)),
        ("challenge", CommitMsg(z=2)),
    ], ids=["zheng-open", "bsc-challenge-commit"])
    def test_unknown_suite_is_named(self, setup, capsys, command, held):
        # every wire input resolves its suite as it is read, so an unknown
        # one is a usage error that names the file, before any output
        d = setup["dir"]
        wire = d / "nope.wire"
        wire.write_text(armor(encode(held, "nope-v9")))
        (d / "m").write_bytes(b"x")
        if command == "open":
            argv = ("zheng", "open", "--params", setup["params"], "--key", setup["key_c"],
                    "--sender-pub", setup["pub_a"], "--in", wire, "--out", d / "out")
        else:
            argv = ("--test-mode", "--seed", 5, "bsc", "challenge", "--params", setup["params"],
                    "--recipient-pub", setup["pub_c"], "--in", d / "m", "--commit", wire,
                    "--state-out", d / "b.state", "--out", d / "out")
        assert run(*argv) == 2
        assert f"error: {wire}: unknown suite 'nope-v9'\n" in capsys.readouterr().err
        assert not (d / "out").exists() and not (d / "b.state").exists()

    @pytest.mark.parametrize("flag", ["--commit", "--sig"])
    def test_toy_suite_is_refused(self, setup, capsys, flag):
        # toy-v1 is a library suite; the CLI reads std-v1 only, even where a
        # toy-v1 message is otherwise valid
        d = setup["dir"]
        wire, msg = d / "toy.wire", d / "m"
        msg.write_bytes(b"x")
        if flag == "--commit":
            wire.write_text(armor(encode(CommitMsg(z=2), "toy-v1")))
            argv = ("--test-mode", "--seed", 5, "bsc", "challenge", "--params", setup["params"],
                    "--recipient-pub", setup["pub_c"], "--in", msg, "--commit", wire,
                    "--state-out", d / "b.state", "--out", d / "out")
        else:
            params = decode(dearmor(setup["params"].read_text()))[0]
            key = json.loads(setup["key_a"].read_text())
            sig = sdss.sign(b"x", sdss.KeyPair(x=key["x"], y=key["y"]), params, toy_suite(),
                            random.Random(5))
            assert sdss.verify(b"x", sig, key["y"], params, toy_suite())
            wire.write_text(armor(encode(sig, "toy-v1")))
            argv = ("sdss", "verify", "--params", setup["params"], "--pub", setup["pub_a"],
                    "--in", msg, "--sig", wire)
        assert run(*argv) == 2
        assert f"error: {wire}: unknown suite 'toy-v1'\n" in capsys.readouterr().err
        assert not (d / "out").exists() and not (d / "b.state").exists()

    def test_invalid_params_validate_exits_1(self, tmp_path):
        bad = tmp_path / "bad.params"
        bad.write_text(armor(encode(GroupParams(p=24, q=11, g=2), "std-v1")))
        assert run("params", "validate", "--params", bad) == 1


OUT_OF_RANGE = pytest.mark.parametrize("y", [0, 1, desk512().p, desk512().p + 1],
                                       ids=["0", "1", "p", "p+1"])


class TestPubKeyRange:
    """A public key file must hold 1 < y < p: a key of 0 or 1 mod p lets
    anyone forge signatures under it."""

    def write(self, path, obj):
        path.write_text(armor(encode(obj, "std-v1")))
        return path

    def verify(self, d, m: bytes, sig, y: int):
        (d / "m").write_bytes(m)
        return run("sdss", "verify", "--params", "desk512",
                   "--pub", self.write(d / "y.pub", PubKeyMsg(y=y)),
                   "--in", d / "m", "--sig", self.write(d / "m.sig", sig))

    def test_keyless_forgery_with_pub_y_1(self, tmp_path, capsys, suite):
        # y = 1 is the public key of x = 0: signing with x = 0 needs no key,
        # and (1 * g^r)^s = g^k
        params, m = desk512(), b"signed by nobody"
        sig = sdss.sign(m, sdss.KeyPair(x=0, y=1), params, suite, random.Random(1))
        assert sdss.verify(m, sig, 1, params, suite)
        assert self.verify(tmp_path, m, sig, 1) == 2
        assert "outside [2, p-1]" in capsys.readouterr().err

    def test_any_s_forgery_with_pub_y_0(self, tmp_path, capsys, suite):
        # y = 0 makes K = 0, so r = h(0 || m) verifies with any s
        params, m = desk512(), b"signed by nobody"
        sig = sdss.SdssSignature(r=sdss.commitment_hash(0, m, params, suite), s=12345)
        assert sdss.verify(m, sig, 0, params, suite)
        assert self.verify(tmp_path, m, sig, 0) == 2
        assert "outside [2, p-1]" in capsys.readouterr().err

    @OUT_OF_RANGE
    def test_sdss_verify_refuses(self, tmp_path, capsys, y):
        assert self.verify(tmp_path, b"x", sdss.SdssSignature(r=1, s=1), y) == 2
        assert f"{tmp_path / 'y.pub'}: public y is outside [2, p-1]" in capsys.readouterr().err

    @OUT_OF_RANGE
    def test_zheng_seal_refuses(self, tmp_path, capsys, y):
        key, msg, out = tmp_path / "a.key", tmp_path / "m", tmp_path / "m.ct"
        assert run("--test-mode", "--seed", 2, "keygen", "--params", "desk512",
                   "--out", key) == 0
        msg.write_bytes(b"x")
        assert run("--test-mode", "--seed", 3, "zheng", "seal", "--params", "desk512",
                   "--key", key, "--recipient-pub", self.write(tmp_path / "y.pub", PubKeyMsg(y=y)),
                   "--in", msg, "--out", out) == 2
        assert f"{tmp_path / 'y.pub'}: public y is outside [2, p-1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="not checked to lie in the order-q subgroup (ROADMAP item 1)")
    def test_zheng_open_refuses_negated_sender_key(self, tmp_path, capsys):
        # y * (p - 1) opens a text iff s * x_C mod q is even: the exit code
        # would answer one parity query about the recipient's secret key
        key_a, pub_a, key_c, pub_c = (tmp_path / n for n in ("a.key", "a.pub", "c.key", "c.pub"))
        msg, ct, out = tmp_path / "m", tmp_path / "m.ct", tmp_path / "m.out"
        for seed, key, pub in ((2, key_a, pub_a), (3, key_c, pub_c)):
            assert run("--test-mode", "--seed", seed, "keygen", "--params", "desk512",
                       "--out", key, "--pub-out", pub) == 0
        msg.write_bytes(b"x")
        assert run("--test-mode", "--seed", 4, "zheng", "seal", "--params", "desk512",
                   "--key", key_a, "--recipient-pub", pub_c, "--in", msg, "--out", ct) == 0
        negated = desk512().p - decode(dearmor(pub_a.read_text()))[0].y
        bad = self.write(tmp_path / "neg.pub", PubKeyMsg(y=negated))
        capsys.readouterr()
        assert run("zheng", "open", "--params", "desk512", "--key", key_c,
                   "--sender-pub", bad, "--in", ct, "--out", out) == 2
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()


class TestWrongScheme:
    """sdss and blind verify share one body, as do zheng and bsc open; each
    still refuses the other scheme's file, naming the class it expected."""

    @pytest.mark.parametrize("command, pub_flag, held, expected", [
        (("sdss", "verify"), "--pub", BlindSignature(r=1, s=1, T=2), "SdssSignature"),
        (("blind", "verify"), "--signer-pub", sdss.SdssSignature(r=1, s=1), "BlindSignature"),
        (("zheng", "open"), "--sender-pub",
         BlindSigncryptedText(c=b"x", r=1, s=1, T=2), "SigncryptedText"),
        (("bsc", "open"), "--signer-pub",
         SigncryptedText(c=b"x", r=1, s=1), "BlindSigncryptedText"),
    ])
    def test_other_schemes_file_is_usage_error(self, setup, capsys, command, pub_flag,
                                               held, expected):
        d = setup["dir"]
        wrong = d / "wrong.wire"
        wrong.write_text(armor(encode(held, "std-v1")))
        (d / "m").write_bytes(b"x")
        if command[1] == "verify":
            rest = ("--in", d / "m", "--sig", wrong)
        else:
            rest = ("--key", setup["key_c"], "--in", wrong, "--out", d / "out")
        assert run(*command, "--params", setup["params"], pub_flag, setup["pub_a"], *rest) == 2
        err = capsys.readouterr().err
        assert f"holds {type(held).__name__}, expected {expected}" in err
        assert not (d / "out").exists()


class TestParserCache:
    ARGVS = [
        ["params", "validate", "--params", "toy23"],
        ["--test-mode", "--seed", "5", "keygen", "--params", "toy23", "--out", "k"],
        ["bsc", "open", "--params", "toy23", "--key", "k", "--signer-pub", "a",
         "--in", "i", "--out", "o", "--bind-info", "b"],
        ["bench", "--scheme", "bsc", "--params", "toy23"],
        ["zheng", "seal", "--params", "toy23", "--key", "k", "--recipient-pub", "c",
         "--in", "i", "--out", "o"],
        ["params", "validate", "--params", "toy23"],
    ]

    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv", [
        ["sdss", "verify", "--params", "p", "--pub", "a", "--in", "i", "--sig", "s"],
        ["blind", "verify", "--params", "p", "--signer-pub", "a", "--in", "i", "--sig", "s"],
        ["zheng", "open", "--params", "p", "--key", "k", "--sender-pub", "a", "--in", "i",
         "--out", "o"],
        ["bsc", "open", "--params", "p", "--key", "k", "--signer-pub", "a", "--in", "i",
         "--out", "o"],
        ["blind", "challenge", "--params", "p", "--signer-pub", "a", "--in", "i",
         "--commit", "c", "--state-out", "s", "--out", "o"],
    ], ids=["sdss-verify", "blind-verify", "zheng-open", "bsc-open", "blind-challenge"])
    def test_signer_key_has_one_dest(self, argv):
        assert build_parser().parse_args(argv).signer_pub == "a"

    def test_shared_parser_parses_like_a_fresh_one(self):
        # the same namespaces, with nothing carried over between commands
        for argv in self.ARGVS:
            assert build_parser().parse_args(argv) == build_parser.__wrapped__().parse_args(argv)

    def test_usage_error_leaves_parser_usable(self):
        assert run("params") == 2
        assert run("keygen", "--params", "toy23") == 2
        assert run("params", "validate", "--params", "toy23") == 0


def outcome(parse, argv):
    """The namespace parse gives, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


LEAVES = build_parser().leaves
VALUES = ["toy23", "7", "-1", "bsc", "A", "x", ""]
# global flags, spaced, in the = form, abbreviated, and malformed
# ("-1_0" is a flag to argparse but a number to int)
GLOBALS = [["--test-mode"], ["--seed", "7"], ["--seed", "-1"], ["--seed", "-1_0"],
           ["--seed", "1_0"], ["--seed", "x"], ["--seed=7"], ["--seed"], ["--test"],
           ["--se", "3"], ["--se=3"], ["-h"], ["--help"], ["--"], ["--=x"]]


@st.composite
def command_lines(draw):
    """An argv around one command: global flags, the command's words (or a
    group's alone, an unknown word or none), then its flags in any order,
    repeated, spaced, in the = form, abbreviated, unknown or missing."""
    words = draw(st.sampled_from(sorted(LEAVES) + [("bsc",), ("nope",), ()]))
    flags = re.findall(r"--[a-z-]+", LEAVES[words].format_usage()) if words in LEAVES else []
    flag = st.sampled_from(flags or ["--params"])
    value = st.sampled_from(VALUES)
    part = st.one_of(
        st.tuples(flag, value).map(list),
        st.builds(lambda f, v: [f"{f}={v}"], flag, value),
        st.builds(lambda f, n: [f[:n]], flag, st.integers(3, 6)),  # abbreviated
        st.sampled_from([["--bogus"], ["-x"], ["-h"], ["--help"], ["--", "x"], ["--=x"]]),
        st.sampled_from(GLOBALS),
    )
    required = [[f, draw(value)] for f in flags] if draw(st.booleans()) else []
    body = draw(st.permutations(required + draw(st.lists(part, max_size=3))))
    before = draw(st.lists(st.sampled_from(GLOBALS), max_size=3))
    return [w for p in before for w in p] + list(words) + [w for p in body for w in p]


class TestDispatch:
    """cli._parse reads a well-formed argv from the command's flag table and
    hands everything else to the full parse, with the same result either way."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(command_lines())
    def test_same_result_as_the_full_parse(self, argv):
        assert outcome(cli._parse, argv) == outcome(build_parser().parse_args, argv)

    def test_session_commands_skip_the_full_parse(self, tmp_path, monkeypatch):
        # keygen and the five commands of a file-based bsc session, shaped as
        # perfbench's cli_session workload runs them; a silent fallback to the
        # full parse would cost that workload its parse time and fail no other test
        f = {name: str(tmp_path / name) for name in (
            "signer.json", "signer.pub", "recipient.json", "recipient.pub", "msg.bin",
            "commit.arm", "challenge.arm", "response.arm", "sealed.arm", "opened.bin",
            "signer.state", "requester.state")}
        parser = build_parser()
        full = []
        real = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda *a: full.append(a) or real(*a))
        for seed, role in ((11, "signer"), (12, "recipient")):
            assert main(["--test-mode", "--seed", str(seed), "keygen", "--params", "desk512",
                         "--out", f[f"{role}.json"], "--pub-out", f[f"{role}.pub"]]) == 0
        m = b"through the command parsers alone"
        (tmp_path / "msg.bin").write_bytes(m)
        seeded = lambda seed, command: ["--test-mode", "--seed", str(seed), "bsc", command,
                                        "--params", "desk512"]
        for argv in (
                seeded(21, "commit") + ["--key", f["signer.json"], "--state-out",
                                        f["signer.state"], "--out", f["commit.arm"]],
                seeded(22, "challenge") + [
                    "--recipient-pub", f["recipient.pub"], "--in", f["msg.bin"],
                    "--commit", f["commit.arm"], "--state-out", f["requester.state"],
                    "--out", f["challenge.arm"]],
                seeded(21, "respond") + ["--key", f["signer.json"], "--state", f["signer.state"],
                                         "--challenge", f["challenge.arm"],
                                         "--out", f["response.arm"]],
                seeded(22, "finalize") + ["--state", f["requester.state"],
                                          "--response", f["response.arm"],
                                          "--out", f["sealed.arm"]],
                ["bsc", "open", "--params", "desk512", "--key", f["recipient.json"],
                 "--signer-pub", f["signer.pub"], "--in", f["sealed.arm"],
                 "--out", f["opened.bin"]]):
            assert main(argv) == 0, argv
        assert (tmp_path / "opened.bin").read_bytes() == m
        assert full == []
        # the spy sees the argvs that do take the full parse
        assert main(["--test-mode", "--seed=11", "keygen", "--params", "desk512",
                     "--out", f["signer.json"]]) == 0
        assert len(full) == 1

    def test_every_command_on_both_routes(self, monkeypatch):
        # per command: its words with every flag of its usage, its words alone
        # (a table that missed params gen's defaulted int flags would accept
        # a bare `params gen`), and every flag with "-v" as the last value
        parser = build_parser()
        full = []
        real = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda *a: full.append(a) or real(*a))
        took_full = set()
        for words, leaf in LEAVES.items():
            flags = re.findall(r"(--[a-z-]+)(?: \{(\w+))?", leaf.format_usage())
            complete = list(words) + [w for flag, choice in flags for w in (flag, choice or "7")]
            full.clear()
            assert outcome(cli._parse, complete) == outcome(real, complete), complete
            if full:
                took_full.add(words)
            for argv in (list(words), complete[:-1] + ["-v"]):
                assert outcome(cli._parse, argv) == outcome(real, argv), argv
        assert took_full == {("params", "gen"), ("params", "validate"), ("bench",)}
        assert took_full == LEAVES.keys() - parser.tables.keys()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "blindsigncrypt", "params", "validate",
         "--params", "toy23"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "parameters ok" in proc.stdout
