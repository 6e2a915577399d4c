"""Turn a measured `Run` (and a trace) into named metrics with units.

`END_TO_END` and `PER_LAYER` list the metrics of the result line; they must
match `BENCHMARK.json` (the self-test checks this). `*_report` functions add
the metrics that exist on only some workloads, for the readable lines.

The timed end-to-end metrics are in reference time (probe.py): each
session's measured time divided by the speed factor the probes measured
around it. The readable lines also print them as measured.
"""

from __future__ import annotations

import bisect
import statistics
from types import SimpleNamespace

from probe import NOMINAL_S, speed_factor
from workloads import CliSession

MIB = 1 << 20

END_TO_END = {
    "setup_s": "s",
    "sessions_per_ref_s": "1/ref_s",
    "bsc_session_p50_ref_ms": "ref_ms",
    "payload_mib_per_ref_s": "MiB/ref_s",
    "peak_rss_mb": "MB",
}

# phases whose self time and p50 every workload exercises
COMMON_FUNCTIONS = (
    "blind_sdss.signer_commit",
    "blind_sdss.signer_respond",
    "blind_signcrypt.bsc_requester_challenge",
    "blind_signcrypt.bsc_requester_finalize",
    "blind_signcrypt.unsigncrypt",
)

PER_LAYER = {
    "group_math.modexp.fixed.self_us": "us",
    "group_math.modexp.var.self_us": "us",
    "group_math.modexp.fixed.calls_per_session": "count",
    "group_math.modexp.var.calls_per_session": "count",
    "group_math.modexp.self_share": "ratio",
    "group_math.modexp_count.A": "count",
    "group_math.modexp_count.B": "count",
    "group_math.modexp_count.C": "count",
    "crypto_suite.cipher.mib_per_s": "MiB/s",
    "crypto_suite.cipher.self_share": "ratio",
    "crypto_suite.keyed_hash.mib_per_s": "MiB/s",
    "crypto_suite.hash.calls_per_session": "count",
    "crypto_suite.derive_keys.self_us": "us",
    **{f"{fn}.{stat}": "us" for fn in COMMON_FUNCTIONS for stat in ("self_us", "p50_us")},
    "trace.overhead_ratio": "ratio",
    "trace.layer_share": "ratio",
}

SCHEME_P50 = {
    "sdss": "sdss_session_p50_ms",
    "zheng": "zheng_session_p50_ms",
    "blind_sdss": "blind_sdss_session_p50_ms",
    "blind_signcrypt": "bsc_session_p50_ms",
}

def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def windows(run, count: int = 20) -> list[tuple[int, float]]:
    """(sessions, seconds) per window: audit rounds, or else `count` equal
    contiguous slices of the run's sessions."""
    if run.rounds:
        return [(r["sessions"], r["seconds"]) for r in run.rounds]
    size = max(1, len(run.sessions) // count)
    out = []
    for i in range(0, len(run.sessions) - size + 1, size):
        chunk = run.sessions[i:i + size]
        out.append((len(chunk), sum(c[1] for c in chunk)))
    return out


def sessions_per_s(run) -> float:
    return statistics.median(n / s for n, s in windows(run))


def session_factors(run, kind: str) -> list[float]:
    """Speed factor of each session: the median over the probes of the probe
    points just before and just after the stretch of operations it is in."""
    points: dict[int, list[float]] = {}
    for at, times in run.probes:
        points.setdefault(at, []).append(speed_factor(kind, times))
    ats = sorted(points)
    factors, memo = [], {}
    for i in range(len(run.sessions)):
        around = (ats[max(bisect.bisect_right(ats, i) - 1, 0)],
                  ats[min(bisect.bisect_left(ats, i + 1), len(ats) - 1)])
        if around not in memo:
            memo[around] = statistics.median(points[around[0]] + points[around[1]])
        factors.append(memo[around])
    return factors


def reference(run, kind: str):
    """The run's sessions and audit rounds with every time in reference seconds."""
    factors = session_factors(run, kind)
    sessions = [(scheme, s / f, b) for (scheme, s, b), f in zip(run.sessions, factors)]
    rounds, start = [], 0
    for r in run.rounds:
        f = factors[start]
        start += r["sessions"]
        rounds.append({**r, **{k: r[k] / f for k in ("seconds", "pairing_s", "tamper_s")}})
    return SimpleNamespace(sessions=sessions, rounds=rounds)


def _timed(run) -> tuple[float, float, float]:
    """(sessions per s, blind signcryption p50 in ms, payload MiB per s) of a run or view."""
    bsc = [s for scheme, s, _ in run.sessions if scheme == "blind_signcrypt"]
    rate = sessions_per_s(run)
    payload = statistics.mean(b for _, _, b in run.sessions)
    return rate, statistics.median(bsc) * 1e3, rate * payload / MIB


def end_to_end(run, kind: str, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    rate, bsc_p50, payload = _timed(reference(run, kind))
    return {
        "setup_s": setup_s,
        "sessions_per_ref_s": rate,
        "bsc_session_p50_ref_ms": bsc_p50,
        "payload_mib_per_ref_s": payload,
        "peak_rss_mb": peak_rss_mb,
    }


def end_to_end_report(run, kind: str) -> dict[str, tuple[float, str]]:
    """The timed metrics as measured, and workload-specific end-to-end metrics,
    for the readable lines."""
    latencies = [s for _, s, _ in run.sessions]
    rate, bsc_p50, payload = _timed(run)
    factors = session_factors(run, kind)
    out = {"sessions": (len(run.sessions), "count"),
           "sessions_per_s": (rate, "1/s"),
           "bsc_session_p50_ms": (bsc_p50, "ms"),
           "payload_mib_per_s": (payload, "MiB/s"),
           **{f"probe.{k}.speed_factor.p50": (statistics.median(
               speed_factor(k, times) for _, times in run.probes), "ratio") for k in NOMINAL_S},
           "probe.speed_factor.max_over_min": (max(factors) / min(factors), "ratio"),
           "probe.points": (len({at for at, _ in run.probes}), "count"),
           # Not in the result line. On sessions_short half the sessions cost
           # three powers and half six, so the median falls in the gap between
           # two modes. The p90 and p99 of cli_session and bulk_seal moved by
           # 20-40% between runs on a shared 2-vCPU machine.
           "session_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
           "session_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
           "session_p99_ms": (percentile(latencies, 99) * 1e3, "ms"),
           "failed_ratio": (run.failed / max(run.attempted, 1), "ratio"),
           "blind_sdss.degenerate_restarts": (run.restarts, "count")}
    for scheme, name in SCHEME_P50.items():
        values = [s for sch, s, _ in run.sessions if sch == scheme]
        if values and name != "bsc_session_p50_ms":
            out[name] = (statistics.median(values) * 1e3, "ms")
    if run.rounds:
        out["pairings_per_s"] = (statistics.median(
            r["cells"] / r["pairing_s"] for r in run.rounds), "1/s")
        out["tamper_rejects_per_s"] = (statistics.median(
            r["rejections"] / r["tamper_s"] for r in run.rounds), "1/s")
    return out


def _per_call(summary, numerators: tuple[str, ...], denominator: str) -> float:
    return summary.count_sum(*numerators) / len(summary.counts[denominator])


def per_layer(summary, traced, untraced, kind: str) -> dict[str, float]:
    S = summary
    sessions = len(traced.sessions)
    wall = S.roots
    cipher_self = S.total_self("crypto_suite.cipher")
    out = {
        "group_math.modexp.fixed.self_us": S.median_us("group_math.modexp.fixed"),
        "group_math.modexp.var.self_us": S.median_us("group_math.modexp.var"),
        "group_math.modexp.fixed.calls_per_session": S.calls("group_math.modexp.fixed") / sessions,
        "group_math.modexp.var.calls_per_session": S.calls("group_math.modexp.var") / sessions,
        "group_math.modexp.self_share": S.total_self("group_math.modexp") / wall,
        "group_math.modexp_count.A": _per_call(
            S, ("blind_sdss.signer_commit", "blind_sdss.signer_respond"), "blind_sdss.signer_commit"),
        "group_math.modexp_count.B": _per_call(
            S, ("blind_signcrypt.bsc_requester_challenge", "blind_signcrypt.bsc_requester_finalize"),
            "blind_signcrypt.bsc_requester_challenge"),
        "group_math.modexp_count.C": _per_call(
            S, ("blind_signcrypt.unsigncrypt",), "blind_signcrypt.unsigncrypt"),
        "crypto_suite.cipher.mib_per_s": S.size["crypto_suite.cipher"] / MIB / cipher_self,
        "crypto_suite.cipher.self_share": cipher_self / wall,
        "crypto_suite.keyed_hash.mib_per_s":
            S.size["crypto_suite.keyed_hash"] / MIB / S.total_self("crypto_suite.keyed_hash"),
        "crypto_suite.hash.calls_per_session": S.calls("crypto_suite.hash") / sessions,
        "crypto_suite.derive_keys.self_us": S.median_us("crypto_suite.derive_keys"),
    }
    for fn in COMMON_FUNCTIONS:
        out[f"{fn}.self_us"] = S.median_us(fn)
        out[f"{fn}.p50_us"] = S.median_us(fn, self_only=False)
    out["trace.overhead_ratio"] = (sessions_per_s(reference(untraced, kind))
                                   / sessions_per_s(reference(traced, kind)))
    out["trace.layer_share"] = 1 - S.root_self / wall
    return out


def per_layer_report(summary, traced) -> dict[str, tuple[float, str]]:
    """Layer metrics of the functions this workload reached, for the readable lines."""
    S = summary
    sessions = len(traced.sessions)
    wall = S.roots
    out: dict[str, tuple[float, str]] = {}
    for name in sorted(S.duration):
        if name.split(".")[0] in ("session", "audit", "cli", "group_math"):
            continue
        out[f"{name}.self_us"] = (S.median_us(name), "us")
        out[f"{name}.p50_us"] = (S.median_us(name, self_only=False), "us")
    out["blind_sdss.degenerate_restarts"] = (traced.restarts, "count")
    for party, fns in (("verify", ("sdss.verify", "blind_sdss.verify")),
                       ("per_pairing", ("blind_sdss.recover_blinding_factors",))):
        calls = sum(len(S.counts[f]) for f in fns)
        if calls:
            out[f"group_math.modexp_count.{party}"] = (S.count_sum(*fns) / calls, "count")
    if S.counts["harness.run_honest_sessions"]:
        per_round = _per_call(S, ("harness.run_honest_sessions",), "harness.run_honest_sessions")
        out["group_math.modexp_count.per_audit_session"] = (
            per_round / traced.rounds[0]["sessions"], "count")
    if S.calls("wire_codec.encode"):
        out["wire_codec.bytes_per_session"] = (S.size["wire_codec.encode"] / sessions, "count")
        out["wire_codec.self_share"] = (S.total_self("wire_codec") / wall, "ratio")
    if traced.rounds:
        rounds = traced.rounds
        run_time = S.total("harness.run_honest_sessions")
        protocol = sum(S.children_of[("harness.run_honest_sessions", fn)] for fn in (
            "blind_sdss.signer_commit", "blind_sdss.signer_respond",
            "blind_signcrypt.bsc_requester_challenge", "blind_signcrypt.bsc_requester_finalize"))
        out["harness.consistency_share"] = (1 - protocol / run_time, "ratio")
        cells, trials = rounds[0]["cells"], rounds[0]["trials"]
        out["harness.cross_pairing_check.per_cell_us"] = (
            S.median_us("harness.cross_pairing_check", self_only=False) / cells, "us")
        out["harness.tamper_suite.per_trial_us"] = (
            S.median_us("harness.tamper_suite", self_only=False) / trials, "us")
        out["harness.cross_pairing.pass_ratio"] = (
            sum(r["passes"] for r in rounds) / sum(r["cells"] for r in rounds), "ratio")
        out["harness.tamper.reject_ratio"] = (
            sum(r["rejections"] for r in rounds) / sum(r["trials"] for r in rounds), "ratio")
    if S.calls("cli.commit"):
        for command in CliSession.COMMANDS:
            out[f"cli.{command}.p50_ms"] = (S.median_us(f"cli.{command}", self_only=False) / 1e3, "ms")
        commands = sum(S.total(f"cli.{c}") for c in CliSession.COMMANDS)
        out["cli.build_parser.share"] = (S.total("cli.build_parser") / commands, "ratio")
    layers = ("group_math", "crypto_suite", "sdss", "zheng", "blind_sdss", "blind_signcrypt",
              "wire_codec", "harness", "cli")
    for layer in layers:
        share = S.total_self(layer + ".") / wall
        if share:
            out[f"{layer}.self_share"] = (share, "ratio")
    out["bench.self_share"] = (S.root_self / wall, "ratio")
    return out


# ROADMAP re-anchor baseline: (label, value, unit, the workload whose inputs
# match it, how to read it from the trace)
BASELINE = (
    ("commit", 337, "us", "sessions_short",
     lambda S: S.median_us("blind_sdss.signer_commit", False)),
    ("challenge", 1019, "us", "sessions_short",
     lambda S: S.median_us("blind_signcrypt.bsc_requester_challenge", False)),
    ("respond", 4, "us", "sessions_short",
     lambda S: S.median_us("blind_sdss.signer_respond", False)),
    ("finalize", 24, "us", "sessions_short",
     lambda S: S.median_us("blind_signcrypt.bsc_requester_finalize", False)),
    ("open", 685, "us", "sessions_short",
     lambda S: S.median_us("blind_signcrypt.unsigncrypt", False)),
    ("pow", 350, "us", "sessions_short", lambda S: statistics.median(
        S.self_time["group_math.modexp.fixed"] + S.self_time["group_math.modexp.var"]) * 1e6),
    ("wire encode+decode", 8, "us", "sessions_short",
     lambda S: S.median_us("wire_codec.encode", False) + S.median_us("wire_codec.decode", False)),
    ("cipher", 89, "ms/MiB", "bulk_seal",
     lambda S: S.total_self("crypto_suite.cipher") * 1e3 / (S.size["crypto_suite.cipher"] / MIB)),
    ("32x32 cross-pairing", 1.0, "s", "audit",
     lambda S: S.median_us("harness.cross_pairing_check", False) / 1e6),
)


def baseline_lines(summary, workload: str) -> list[str]:
    """The traced medians next to the ROADMAP re-anchor values, with the gap."""
    lines = ["baseline check (ROADMAP re-anchor means; here traced medians, wrappers included):"]
    for label, base, unit, where, read in BASELINE:
        if where != workload:
            continue
        value = read(summary)
        gap = (value - base) / base * 100
        lines.append(f"  {label:<20} baseline {base:>7g} {unit:<6} traced {value:>10.3f} {unit:<6}"
                     f" gap {gap:+6.1f}%")
    return lines
