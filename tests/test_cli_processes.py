"""The CLI as a user runs it: one fresh `python -m blindsigncrypt` process per
command, exchanging files in a scratch directory, with the README's commands.

Each process imports the package anew and reads every key, state and wire
file that an earlier process wrote, so these tests catch what in-process
tests share by accident: module state, open files, the parser, the real
/dev/stdin of a pipe. They make the assertions that matter across processes
only; tests/test_cli.py covers each command's options and refusals in one
process at toy sizes.
"""

import dataclasses
import os
import random
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import blindsigncrypt
from blindsigncrypt import blind_signcrypt
from blindsigncrypt.blind_sdss import CommitMsg
from blindsigncrypt.cli import MAX_MESSAGE_BYTES, _read_key
from blindsigncrypt.crypto_suite import std_suite
from blindsigncrypt.errors import TagMismatch
from blindsigncrypt.group_math import DESK512, int_to_bytes
from blindsigncrypt.wire_codec import armor, encode

# the directory the package was imported from, so the child processes import
# the same code from any working directory
_IMPORT_ROOT = str(Path(blindsigncrypt.__file__).resolve().parent.parent)
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (_IMPORT_ROOT, os.environ.get("PYTHONPATH"))))}


def cli(cwd, *argv, input=b""):
    """Run one command; stdin is a pipe holding `input`, never the test's own."""
    return subprocess.run([sys.executable, "-m", "blindsigncrypt", *map(str, argv)],
                          cwd=cwd, env=_ENV, input=input, capture_output=True, timeout=120)


def ok(cwd, *argv, input=b""):
    proc = cli(cwd, *argv, input=input)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def refused(cwd, code, *argv, out, input=b""):
    """Run a command that must exit with `code` and leave its --out file unmade."""
    proc = cli(cwd, *argv, "--out", out, input=input)
    assert proc.returncode == code, proc.stderr.decode()
    assert not (Path(cwd) / out).exists()
    return proc


def keygen(cwd, params, seeds):
    for seed, name in zip(seeds, ("alice", "carol")):
        ok(cwd, "--test-mode", "--seed", seed, "keygen", "--params", params,
           "--out", f"{name}.key", "--pub-out", f"{name}.pub")


def blind_session(cwd, scheme, seeds, message, params="group.params", out="sealed.wire"):
    """A's commit and respond under the first seed, B's challenge and finalize
    under the second, each in its own process, as the README runs them: alice
    signs, and carol receives a bsc text."""
    a, b = (("--test-mode", "--seed", seed, scheme) for seed in seeds)
    other = ("--recipient-pub", "carol.pub") if scheme == "bsc" else ("--signer-pub", "alice.pub")
    ok(cwd, *a, "commit", "--params", params, "--key", "alice.key",
       "--state-out", "alice.state", "--out", "commit.wire")
    ok(cwd, *b, "challenge", "--params", params, *other, "--in", message,
       "--commit", "commit.wire", "--state-out", "bob.state", "--out", "challenge.wire")
    ok(cwd, *a, "respond", "--params", params, "--key", "alice.key",
       "--state", "alice.state", "--challenge", "challenge.wire", "--out", "response.wire")
    ok(cwd, *b, "finalize", "--params", params, "--state", "bob.state",
       "--response", "response.wire", "--out", out)


def bsc_open(cwd, out, params="group.params"):
    ok(cwd, "bsc", "open", "--params", params, "--key", "carol.key",
       "--signer-pub", "alice.pub", "--in", "sealed.wire", "--out", out)
    return (Path(cwd) / out).read_bytes()


def mode(path):
    return stat.S_IMODE(path.stat().st_mode)


def copy_files(src, dst):
    for path in src.iterdir():
        shutil.copy2(path, dst)
    return dst


@pytest.fixture(scope="module")
def readme(tmp_path_factory):
    """The README's group.params (seed 100) and alice and carol key pairs
    (seeds 101 and 102), made once."""
    d = tmp_path_factory.mktemp("readme")
    ok(d, "--test-mode", "--seed", 100, "params", "gen", "--bits-p", 512,
       "--bits-q", 160, "--out", "group.params")
    keygen(d, "group.params", (101, 102))
    return d


@pytest.fixture
def work(readme, tmp_path):
    """A scratch directory holding copies of the README files."""
    return copy_files(readme, tmp_path)


@pytest.fixture(scope="module")
def desk_keys(tmp_path_factory):
    """alice and carol key pairs at the built-in desk512 set, which each
    process takes from its import."""
    d = tmp_path_factory.mktemp("desk512")
    assert "parameters ok" in ok(d, "params", "validate", "--params", "desk512").stdout.decode()
    keygen(d, "desk512", (1, 2))
    return d


def test_desk512_mebibyte_through_pipes_and_a_session(desk_keys, tmp_path):
    copy_files(desk_keys, tmp_path)
    m = random.Random(1).randbytes(1 << 20)
    (tmp_path / "m.bin").write_bytes(m)
    # message and ciphertext each arrive on a pipe as /dev/stdin
    ok(tmp_path, "zheng", "seal", "--params", "desk512", "--key", "alice.key",
       "--recipient-pub", "carol.pub", "--in", "/dev/stdin", "--out", "m.ct", input=m)
    ok(tmp_path, "zheng", "open", "--params", "desk512", "--key", "carol.key",
       "--sender-pub", "alice.pub", "--in", "/dev/stdin", "--out", "m.out",
       input=(tmp_path / "m.ct").read_bytes())
    assert (tmp_path / "m.out").read_bytes() == m

    blind_session(tmp_path, "bsc", (3, 4), "m.bin", params="desk512")
    assert bsc_open(tmp_path, "m2.out", params="desk512") == m
    # the spent requester state keeps no ciphertext, and stays spent
    assert (tmp_path / "bob.state").stat().st_size < 1024
    refused(tmp_path, 2, "--test-mode", "--seed", 4, "bsc", "finalize", "--params", "desk512",
            "--state", "bob.state", "--response", "response.wire", out="again.wire")


def test_piped_message_over_the_limit_writes_nothing(desk_keys, tmp_path):
    copy_files(desk_keys, tmp_path)
    proc = refused(tmp_path, 2, "zheng", "seal", "--params", "desk512", "--key", "alice.key",
                   "--recipient-pub", "carol.pub", "--in", "/dev/stdin", out="big.ct",
                   input=bytes(MAX_MESSAGE_BYTES + 1))
    assert b"larger than the limit" in proc.stderr


def test_readme_blind_sessions(readme, work):
    message = random.Random(2).randbytes(100)
    (work / "message.txt").write_bytes(message)
    blind_session(work, "bsc", (103, 104), "message.txt")
    assert bsc_open(work, "recovered.txt") == message
    # key and state files are owner-only
    assert mode(readme / "alice.key") == 0o600
    assert mode(work / "alice.state") == 0o600
    # the requester state is spent: a second finalize exits 2 and writes nothing
    refused(work, 2, "--test-mode", "--seed", 104, "bsc", "finalize", "--params", "group.params",
            "--state", "bob.state", "--response", "response.wire", out="again.wire")
    # the signer's state, under its own seed, is refused by the requester's finalize
    refused(work, 2, "--test-mode", "--seed", 103, "bsc", "finalize", "--params", "group.params",
            "--state", "alice.state", "--response", "response.wire", out="wrong.wire")

    blind_session(work, "blind", (105, 106), "message.txt", out="blind.sig")
    ok(work, "blind", "verify", "--params", "group.params", "--signer-pub", "alice.pub",
       "--in", "message.txt", "--sig", "blind.sig")

    # a second bsc round over the same files with a shorter message: every
    # output is overwritten in place and cut to length
    (work / "message2.txt").write_bytes(message[:40])
    blind_session(work, "bsc", (107, 108), "message2.txt")
    assert bsc_open(work, "recovered.txt") == message[:40]


def test_readme_sdss_and_a_toy_suite_refused(work):
    (work / "msg.txt").write_bytes(b"pay bob 10")
    ok(work, "sdss", "sign", "--params", "group.params", "--key", "alice.key",
       "--in", "msg.txt", "--out", "msg.sig")
    ok(work, "sdss", "verify", "--params", "group.params", "--pub", "alice.pub",
       "--in", "msg.txt", "--sig", "msg.sig")
    # the same signature over a changed message exits 1
    (work / "changed.txt").write_bytes(b"pay bob 99")
    proc = cli(work, "sdss", "verify", "--params", "group.params", "--pub", "alice.pub",
               "--in", "changed.txt", "--sig", "msg.sig")
    assert proc.returncode == 1

    # the CLI reads std-v1 only: a toy-v1 commitment exits 2 and writes nothing
    (work / "toy.wire").write_text(armor(encode(CommitMsg(z=2), "toy-v1")))
    proc = refused(work, 2, "--test-mode", "--seed", 104, "bsc", "challenge",
                   "--params", "group.params", "--recipient-pub", "carol.pub", "--in", "msg.txt",
                   "--commit", "toy.wire", "--state-out", "bob.state", out="challenge.wire")
    assert b"toy.wire: unknown suite 'toy-v1'" in proc.stderr
    assert not (work / "bob.state").exists()


def negated_T_text(alice, carol, message, seed):
    """A seeded in-process bsc session from alice to carol at desk512, with
    its T replaced by p - T, an element outside the order-q subgroup."""
    rng, suite = random.Random(seed), std_suite()
    bind = int_to_bytes(carol.y)  # the CLI's default bind_info
    signer, commit = blind_signcrypt.bsc_signer_commit(alice, DESK512, rng)
    requester, challenge = blind_signcrypt.bsc_requester_challenge(
        message, commit.z, carol.y, bind, DESK512, suite, rng)
    response = blind_signcrypt.bsc_signer_respond(signer, challenge.r_bar, alice)
    ct = blind_signcrypt.bsc_requester_finalize(requester, response.s_bar, DESK512)
    return dataclasses.replace(ct, T=DESK512.p - ct.T), bind


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="not checked to lie in the order-q subgroup (ROADMAP item 1)")
def test_bsc_open_refuses_negated_T(desk_keys, tmp_path):
    copy_files(desk_keys, tmp_path)
    alice, carol = (_read_key(str(tmp_path / f"{name}.key"), DESK512)
                    for name in ("alice", "carol"))
    message = b"pay bob 10"
    # the first seeded session whose p - T text the library opens; once T is
    # checked none opens, and the last text probes the CLI as well
    for seed in range(40):
        text, bind = negated_T_text(alice, carol, message, seed)
        try:
            blind_signcrypt.unsigncrypt(text, carol, alice.y, bind, DESK512, std_suite())
            break
        except TagMismatch:
            continue
    (tmp_path / "negated.wire").write_text(armor(encode(text)))
    refused(tmp_path, 1, "bsc", "open", "--params", "desk512", "--key", "carol.key",
            "--signer-pub", "alice.pub", "--in", "negated.wire", out="negated.out")
