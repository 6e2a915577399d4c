"""The four benchmark workloads, each a closed loop with one client.

A workload's constructor is its set-up: parameters, keys, input pools and a
short warm-up. `step(run, tracer)` performs one operation (a session, or an
audit round), checks its output and records it in `run`. All inputs come
from the workload seed; the library sees only seeded `random.Random`
instances, keys and messages.
"""

from __future__ import annotations

import itertools
import json
import random
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from blindsigncrypt import (
    blind_sdss,
    blind_signcrypt,
    cli,
    crypto_suite,
    harness,
    sdss,
    wire_codec,
    zheng,
)
from blindsigncrypt.errors import DegenerateDenominator
from blindsigncrypt.group_math import desk512, int_to_bytes
from probe import run_probe

SUITE_ID = "std-v1"
KIB = 1024
PROBE_SHARE = 0.03  # a probe point runs probes for this share of the time since the last


class Run:
    """What one measured phase produced."""

    def __init__(self):
        self.sessions: list[tuple[str, float, int]] = []  # (scheme, seconds, payload bytes)
        self.rounds: list[dict] = []                       # audit rounds only
        self.attempted = 0
        self.failed = 0
        self.restarts = 0  # DegenerateDenominator restarts, not failures
        self.errors: list[str] = []
        # (sessions completed when it ran, probe times): see probe.py
        self.probes: list[tuple[int, dict[str, float]]] = []

    def probe(self, elapsed: float) -> None:
        """A probe point: at least one probe, and probes for PROBE_SHARE of `elapsed`."""
        at, spent = len(self.sessions), 0.0
        while True:
            times = run_probe()
            self.probes.append((at, times))
            spent += sum(times.values())
            if spent >= PROBE_SHARE * elapsed:
                return

    def fail(self, n: int = 1) -> None:
        """Count n failed operations, keeping the traceback of the first few."""
        self.failed += n
        if len(self.errors) < 3:
            self.errors.append(traceback.format_exc())


def wire(value):
    """Send a protocol message across the canonical codec, as between parties."""
    decoded, suite_id = wire_codec.decode(wire_codec.encode(value, SUITE_ID))
    if suite_id != SUITE_ID:
        raise ValueError(f"suite id {suite_id!r} did not survive the codec")
    return decoded


class Workload:
    name = ""
    PROBE = "pow"  # the probe kind (probe.py) of the work that dominates the workload

    def __init__(self, seed: int, out_dir: Path):
        self.params = desk512()
        self.suite = crypto_suite.get_suite(SUITE_ID)
        self.inputs = random.Random(f"{seed}:inputs")
        self.rng = random.Random(f"{seed}:library")
        self.keys = random.Random(f"{seed}:keys")
        self.signer = sdss.keygen(self.params, self.keys)

    def fixed_bases(self) -> set[int]:
        """Bases a modexp call counts as fixed-base for: g and every public key made here."""
        return {self.params.g, self.signer.y}

    def step(self, run: Run, tracer) -> None:
        raise NotImplementedError

    def warm_up(self, steps: int) -> None:
        scratch = Run()
        for _ in range(steps):
            self.step(scratch, None)

    def close(self) -> None:
        pass

    # -- one timed session -----------------------------------------------------------

    def session(self, run: Run, tracer, scheme: str, payload: int, body) -> None:
        run.attempted += 1
        if tracer is not None:
            tracer.session += 1
            span = tracer.begin("session." + scheme)
        start = perf_counter()
        try:
            ok = body()
        except Exception:  # every library failure counts; the loop goes on
            ok = False
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end(span)
        if ok:
            run.sessions.append((scheme, elapsed, payload))
        else:
            run.fail()

    # -- the four schemes, every protocol message through the wire codec -------------

    def sdss_session(self, m, recipient, bind_info, run) -> bool:
        P, suite, signer = self.params, self.suite, self.signer
        sig = wire(sdss.sign(m, signer, P, suite, self.rng))
        return sdss.verify(m, sig, signer.y, P, suite) is True

    def zheng_session(self, m, recipient, bind_info, run) -> bool:
        P, suite, signer = self.params, self.suite, self.signer
        ct = wire(zheng.signcrypt(m, signer, recipient.y, bind_info, P, suite, self.rng))
        return zheng.unsigncrypt(ct, recipient, signer.y, bind_info, P, suite) == m

    def blind_sdss_session(self, m, recipient, bind_info, run) -> bool:
        P, suite, signer, rng = self.params, self.suite, self.signer, self.rng
        while True:
            signer_session, commit = blind_sdss.signer_commit(signer, P, rng)
            req, challenge = blind_sdss.requester_challenge(
                m, wire(commit).z, signer.y, P, suite, rng)
            response = wire(blind_sdss.signer_respond(
                signer_session, wire(challenge).r_bar, signer))
            try:
                sig = blind_sdss.requester_finalize(req, response.s_bar, P)
                break
            except DegenerateDenominator:
                run.restarts += 1
        return blind_sdss.verify(m, wire(sig), signer.y, P, suite) is True

    def bsc_session(self, m, recipient, bind_info, run) -> bool:
        P, suite, signer, rng = self.params, self.suite, self.signer, self.rng
        while True:
            signer_session, commit = blind_sdss.signer_commit(signer, P, rng)
            req, challenge = blind_signcrypt.bsc_requester_challenge(
                m, wire(commit).z, recipient.y, bind_info, P, suite, rng)
            response = wire(blind_sdss.signer_respond(
                signer_session, wire(challenge).r_bar, signer))
            try:
                ct = blind_signcrypt.bsc_requester_finalize(req, response.s_bar, P)
                break
            except DegenerateDenominator:
                run.restarts += 1
        return blind_signcrypt.unsigncrypt(
            wire(ct), recipient, signer.y, bind_info, P, suite) == m


SESSION_BODIES = {
    "sdss": Workload.sdss_session,
    "zheng": Workload.zheng_session,
    "blind_sdss": Workload.blind_sdss_session,
    "blind_signcrypt": Workload.bsc_session,
}


class SessionsShort(Workload):
    """Short messages, the four schemes in rotation, Zipf-skewed recipients."""

    name = "sessions_short"
    SCHEMES = ("sdss", "zheng", "blind_sdss", "blind_signcrypt")
    POOL = 256

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.pool = [sdss.keygen(self.params, self.keys) for _ in range(self.POOL)]
        self.bind_infos = [int_to_bytes(k.y) for k in self.pool]
        # Zipf(s=1): recipient of rank k drawn with weight 1/k
        self.cum_weights = list(itertools.accumulate(1 / k for k in range(1, self.POOL + 1)))
        self.turn = 0
        self.warm_up(8)

    def fixed_bases(self):
        return super().fixed_bases() | {k.y for k in self.pool}

    def step(self, run, tracer):
        scheme = self.SCHEMES[self.turn % len(self.SCHEMES)]
        self.turn += 1
        m = self.inputs.randbytes(self.inputs.randint(16, 256))
        i = self.inputs.choices(range(self.POOL), cum_weights=self.cum_weights)[0]
        body = SESSION_BODIES[scheme]
        self.session(run, tracer, scheme, len(m),
                     lambda: body(self, m, self.pool[i], self.bind_infos[i], run))


class BulkSeal(Workload):
    """192-320 KiB messages, zheng and blind signcryption alternating."""

    name = "bulk_seal"
    PROBE = "py"
    SCHEMES = ("zheng", "blind_signcrypt")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.recipient = sdss.keygen(self.params, self.keys)
        self.bind_info = int_to_bytes(self.recipient.y)
        self.turn = 0
        # Both schemes once, on 4 KiB: every code path runs, and set-up stays
        # short and mostly free of the cipher loop, whose speed drifts most.
        for scheme in self.SCHEMES:
            SESSION_BODIES[scheme](self, bytes(4 * KIB), self.recipient, self.bind_info, Run())

    def fixed_bases(self):
        return super().fixed_bases() | {self.recipient.y}

    def step(self, run, tracer):
        scheme = self.SCHEMES[self.turn % len(self.SCHEMES)]
        self.turn += 1
        m = self.inputs.randbytes(self.inputs.randint(192 * KIB, 320 * KIB))
        body = SESSION_BODIES[scheme]
        self.session(run, tracer, scheme, len(m),
                     lambda: body(self, m, self.recipient, self.bind_info, run))


class Audit(Workload):
    """Rounds of harness sessions, a cross-pairing grid and a tamper suite."""

    name = "audit"
    SESSIONS = 32
    TRIALS = 100

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.recipient = sdss.keygen(self.params, self.keys)
        self.bind_info = harness.DEFAULT_BIND_INFO
        # a miniature round: every function of a round runs once before timing
        transcripts = harness.run_honest_sessions(
            2, "blind_signcrypt", self.params, self.suite, self.rng, messages=[b"warm-up"] * 2,
            bind_info=self.bind_info, signer=self.signer, recipient=self.recipient)
        harness.cross_pairing_check(transcripts)
        harness.tamper_suite(transcripts[0], 4, self.rng)

    def fixed_bases(self):
        return super().fixed_bases() | {self.recipient.y}

    def step(self, run, tracer):
        n, trials = self.SESSIONS, self.TRIALS
        messages = [self.inputs.randbytes(self.inputs.randint(16, 256)) for _ in range(n)]
        pick = self.inputs.randrange(n)
        run.attempted += n + n * n + trials
        if tracer is not None:
            tracer.session += 1
            span = tracer.begin("audit.round")
        # A session starts where signer_commit is entered; one timestamp each.
        marks: list[float] = []
        commit = blind_sdss.signer_commit

        def marked_commit(*args, **kwargs):
            marks.append(perf_counter())
            return commit(*args, **kwargs)

        try:
            t0 = perf_counter()
            blind_sdss.signer_commit = marked_commit
            try:
                transcripts = harness.run_honest_sessions(
                    n, "blind_signcrypt", self.params, self.suite, self.rng,
                    messages=messages, bind_info=self.bind_info,
                    signer=self.signer, recipient=self.recipient)
            finally:
                blind_sdss.signer_commit = commit
            t1 = perf_counter()
            pairing = harness.cross_pairing_check(transcripts)
            t2 = perf_counter()
            tamper = harness.tamper_suite(transcripts[pick], trials, self.rng)
            t3 = perf_counter()
        except Exception:  # the whole round is lost; count every operation in it
            run.fail(n + n * n + trials)
            return
        finally:
            if tracer is not None:
                tracer.end(span)

        recording = tracer is not None and tracer.recording
        if tracer is not None:
            tracer.recording = False  # the checks below are not part of the round
        bad_sessions = sum(not self._opens(t, m) for t, m in
                           itertools.zip_longest(transcripts, messages))
        if tracer is not None:
            tracer.recording = recording
        bad_flips = trials - tamper.rejections + (0 if tamper.control_ok else 1)
        run.failed += bad_sessions + (pairing.total - pairing.passes) + bad_flips

        if len(marks) >= n:
            seconds = [end - start for start, end in itertools.pairwise(marks[-n:] + [t1])]
        else:  # the harness no longer enters signer_commit once per session
            seconds = [(t1 - t0) / n] * n
        for s, m in zip(seconds, messages):
            run.sessions.append(("blind_signcrypt", s, len(m)))
        run.rounds.append({
            "sessions": n, "seconds": t3 - t0,
            "pairing_s": t2 - t1, "cells": pairing.total, "passes": pairing.passes,
            "tamper_s": t3 - t2, "trials": trials, "rejections": tamper.rejections,
        })

    def _opens(self, transcript, message) -> bool:
        """Independent check that a harness session's text opens to its message."""
        if transcript is None or message is None or transcript.message != message:
            return False
        try:
            return blind_signcrypt.unsigncrypt(
                transcript.output, self.recipient, self.signer.y, self.bind_info,
                self.params, self.suite) == message
        except Exception:
            return False


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


class CliSession(Workload):
    """A file-based blind signcryption session through the CLI, five commands."""

    name = "cli_session"
    PROBE = "py"
    COMMANDS = ("commit", "challenge", "respond", "finalize", "open")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.tmp = tempfile.TemporaryDirectory(prefix="cli-", dir=out_dir)
        d = Path(self.tmp.name)
        self.path = {name: str(d / name) for name in (
            "signer.json", "signer.pub", "recipient.json", "recipient.pub", "msg.bin",
            "commit.arm", "challenge.arm", "response.arm", "sealed.arm", "opened.bin",
            "signer.state", "requester.state")}
        self.sink = _Discard()
        self.public = set()
        for role in ("signer", "recipient"):
            self._cli(["--test-mode", "--seed", str(self.keys.getrandbits(31)), "keygen",
                       "--params", "desk512", "--out", self.path[f"{role}.json"],
                       "--pub-out", self.path[f"{role}.pub"]])
            self.public.add(json.loads(Path(self.path[f"{role}.json"]).read_text())["y"])
        self.warm_up(1)

    def fixed_bases(self):
        return super().fixed_bases() | self.public

    def close(self):
        self.tmp.cleanup()

    def _cli(self, argv) -> None:
        with redirect_stdout(self.sink), redirect_stderr(self.sink):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli exited with {code}: {' '.join(argv)}")

    def argv(self, command: str, signer_seed: int, requester_seed: int) -> list[str]:
        f = self.path
        seeded = lambda seed: ["--test-mode", "--seed", str(seed), "bsc", command,
                               "--params", "desk512"]
        return {
            "commit": seeded(signer_seed) + [
                "--key", f["signer.json"], "--state-out", f["signer.state"],
                "--out", f["commit.arm"]],
            "challenge": seeded(requester_seed) + [
                "--recipient-pub", f["recipient.pub"], "--in", f["msg.bin"],
                "--commit", f["commit.arm"], "--state-out", f["requester.state"],
                "--out", f["challenge.arm"]],
            "respond": seeded(signer_seed) + [
                "--key", f["signer.json"], "--state", f["signer.state"],
                "--challenge", f["challenge.arm"], "--out", f["response.arm"]],
            "finalize": seeded(requester_seed) + [
                "--state", f["requester.state"], "--response", f["response.arm"],
                "--out", f["sealed.arm"]],
            "open": ["bsc", "open", "--params", "desk512", "--key", f["recipient.json"],
                     "--signer-pub", f["signer.pub"], "--in", f["sealed.arm"],
                     "--out", f["opened.bin"]],
        }[command]

    def step(self, run, tracer):
        m = self.inputs.randbytes(self.inputs.randint(16, 256))
        Path(self.path["msg.bin"]).write_bytes(m)
        signer_seed, requester_seed = self.inputs.getrandbits(31), self.inputs.getrandbits(31)

        def body():
            for command in self.COMMANDS:
                argv = self.argv(command, signer_seed, requester_seed)
                if tracer is None:
                    self._cli(argv)
                    continue
                span = tracer.begin("cli." + command)
                try:
                    self._cli(argv)
                finally:
                    tracer.end(span)
            return Path(self.path["opened.bin"]).read_bytes() == m

        self.session(run, tracer, "blind_signcrypt", len(m), body)


WORKLOADS = {w.name: w for w in (SessionsShort, BulkSeal, Audit, CliSession)}


def instrument(tracer, workload: Workload) -> None:
    """Wrap every public function the workloads reach, where its callers resolve it."""
    fixed = workload.fixed_bases()
    for module in (sdss, zheng, blind_sdss, blind_signcrypt, harness):
        if hasattr(module, "modexp"):
            tracer.patch_modexp(module, fixed)
    for module in (zheng, blind_signcrypt):
        if hasattr(module, "derive_keys"):
            tracer.patch(module, "derive_keys", "crypto_suite.derive_keys")
    counted = {
        sdss: ("verify",),
        blind_sdss: ("signer_commit", "requester_challenge", "signer_respond",
                     "requester_finalize", "verify", "recover_blinding_factors"),
        blind_signcrypt: ("bsc_requester_challenge", "bsc_requester_finalize", "unsigncrypt"),
        harness: ("run_honest_sessions",),
    }
    plain = {
        sdss: ("sign",),
        zheng: ("signcrypt", "unsigncrypt"),
        blind_sdss: ("recover_commitment",),
        blind_signcrypt: ("shared_element",),
        harness: ("cross_pairing_check", "tamper_suite"),
        wire_codec: ("armor", "dearmor"),
        cli: ("build_parser",),
    }
    for table, count in ((counted, True), (plain, False)):
        for module, names in table.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for fn in names:
                if hasattr(module, fn):
                    tracer.patch(module, fn, f"{short}.{fn}", count=count)
    tracer.patch(wire_codec, "encode", "wire_codec.encode", size=lambda a, out: len(out))
    tracer.patch(wire_codec, "decode", "wire_codec.decode", size=lambda a, out: len(a[0]))
    tracer.instrument_suite(workload.suite)
    # the CLI builds its own suites; trace those too
    for factory in ("get_suite", "std_suite"):
        if hasattr(cli, factory):
            tracer.patch_factory(cli, factory)
