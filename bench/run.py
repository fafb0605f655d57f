"""Benchmark of the redei CLI: three seeded workloads, end-to-end metrics
from untraced runs, per-layer metrics from a separate traced run.

    python3 bench/run.py --workload lookup|catalog|oracle --seed N \\
        --seconds S --trace 0|1

Run it from the repository root; it imports the library from `src/`.
Load shape: closed loop, one client.  Each request is `redei.cli.main(argv)`
called in a fresh session process (bench/session.py), with stdout written
to a replies file, and is sent only after the previous one has returned.
lookup and catalog send all their requests in one session, so caches carry
from one request to the next as in a long-lived process; oracle starts a
new session per `verify` request, so its worker pool (at most nproc
workers) never forks from a parent that earlier requests warmed.  Replies
are validated here, after the session has ended, so the validators do not
add to the session's time or memory.

--trace 0 sends WARMUP_ROUNDS rounds of requests (bench/workloads.py),
validated but not measured, then measures whole rounds until at least S
seconds of request time have been measured:
  throughput_rps  requests completed per second of request time
  latency_p50_s   median request latency
  latency_tail_s  highest percentile with at least 10 samples beyond it
                  (the maximum when a run has fewer than 11 requests)
  checks_per_s    checks completed per second of request time: on oracle,
                  the property checks `verify` reports; on lookup, the
                  structures the validators confirmed (two per family
                  reply); on catalog, the indices whose class they
                  confirmed
  setup_s         time for a fresh process to import redei and redei.cli:
                  the fastest of SETUP_SAMPLES processes started at points
                  spread through the run (before the first request, between
                  rounds or sessions, after the last), since import time on
                  a shared host only ever gains noise, in phases that last
                  seconds
  peak_rss_mb     largest resident set of a session process or its pool
                  workers; on lookup and catalog, as it stood after the
                  first RSS_ROUNDS rounds, which every run sends whatever
                  its speed, since the caches grow with every round
The failed-request ratio is printed on its own line; the result line carries
it as `failed` of `attempted`.

--trace 1 runs a fixed request list (the first TRACE_ROUNDS rounds of the
seed's stream) twice, each in a fresh session: untraced, then with spans
recorded around the library's public functions (bench/tracer.py).  It
reports per-layer counts and times and trace.overhead_ratio.  oracle runs
`verify --workers 1` in both, because spans recorded inside pool workers
would be lost; the sweeps then run in-process in run_all's order.
Spans go to .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import validate  # noqa: E402
from workloads import RSS_ROUNDS, TRACE_ROUNDS, WARMUP_ROUNDS, WORKLOADS, stream  # noqa: E402

ORACLE_COUNTS = HERE / "oracle_counts.json"
SETUP_SAMPLES = 16
# Set-up samples taken before the first request, and at each point between
# rounds (lookup, catalog) or sessions (oracle); the rest follow the last
# request.
SETUP_FIRST = 5
SETUP_BETWEEN = 2
# Every process this run starts must end within this many seconds of the
# run's start, so that the run itself ends within three minutes.
RUN_DEADLINE_S = 170
TAIL_BEYOND = 10
_FAILURE_SAMPLES = 5
_SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import redei, redei.cli\n"
    "print(time.perf_counter() - start)\n"
)


class BenchError(Exception):
    """The benchmark could not run to the end."""


_START = time.monotonic()


def _spawn(argv: list[str]) -> str:
    # Own process group, so a timeout also ends any pool workers.
    timeout = max(RUN_DEADLINE_S - (time.monotonic() - _START), 1.0)
    proc = subprocess.Popen(
        argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{argv[1]} still running {RUN_DEADLINE_S} s into the run")
        raise
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


_SETUP_ARGV = [sys.executable, "-c", _SETUP_CODE, str(SRC)]


def measure_setup(samples: int) -> list[float]:
    """Import time of `samples` fresh processes."""
    return [float(_spawn(_SETUP_ARGV)) for _ in range(samples)]


class Checker:
    """Validates replies in request order; a catalog field's classes reply
    is kept for its isolated and pairs replies."""

    def __init__(self, workload: str):
        self.field = None
        self.classes = None
        self.expected_counts = None
        if workload == "oracle":
            self.expected_counts = json.loads(ORACLE_COUNTS.read_text())

    def __call__(self, req, text: str) -> int:
        kind = req.kind
        if kind in ("structure", "verify-structure"):
            return validate.check_structure_reply(
                text, req.m, req.q, req.chi, verify=kind == "verify-structure"
            )
        if kind == "family":
            return validate.check_family_reply(text, req.family, req.p, req.q, req.chi)
        if kind == "oracle":
            return validate.check_oracle(text, self.expected_counts[str(req.qmax)])
        field = (req.q, req.chi)
        if kind == "classes":
            self.field, self.classes = field, None
            rows = validate.parse_classes(text, req.fmt)
            checked = validate.check_classes(rows, req.q, req.chi)
            self.classes = rows
            return checked
        # On catalog, checks are the indices classified; isolated and pairs
        # replies are validated but add none, since their sizes swing by
        # orders of magnitude from field to field.
        classes = self.classes if self.field == field else None
        if kind == "isolated":
            validate.check_isolated(text, req.fmt, req.q, req.chi, classes)
            return 0
        if kind == "pairs":
            if classes is None:
                raise validate.Invalid("pairs reply without validated classes")
            validate.check_pairs(text, req.fmt, req.q, req.chi, classes)
            return 0
        raise ValueError(f"no validator for {kind!r}")


class Replies:
    """Validates and digests the replies of one or more sessions, in
    request order."""

    def __init__(self, workload: str, prefix: int):
        self.workload = workload
        self.prefix = prefix
        self.check = Checker(workload)
        self.requests: list = []
        self.failures: list[str] = []
        self.failed = self.checks = self.output_bytes = 0
        self.digest = hashlib.sha256()
        self.prefix_digest = None

    def add(self, requests, session: dict, path: Path, warmup: int) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        path.unlink()
        for req, (code, begin, end, err) in zip(requests, session["replies"]):
            out = data[begin:end]
            self.requests.append(req)
            self.output_bytes += len(out)
            self.digest.update(hashlib.sha256(" ".join(req.argv).encode() + b"\n" + out).digest())
            if len(self.requests) == self.prefix:
                self.prefix_digest = self.digest.hexdigest()
            problem = None
            if code != 0:
                problem = f"exit {code}: {err}"
            else:
                try:
                    checked = self.check(req, out.decode())
                    self.checks += checked if req.round >= warmup else 0
                except Exception as exc:  # any rejection counts as a failed request
                    problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                self.failed += 1
                if len(self.failures) < _FAILURE_SAMPLES:
                    self.failures.append(f"{' '.join(req.argv)} -> {problem}")

    def mix(self) -> dict:
        total = len(self.requests)
        kinds: dict[str, int] = {}
        formats: dict[str, int] = {}
        seen, repeats = set(), 0
        for req in self.requests:
            kinds[req.kind] = kinds.get(req.kind, 0) + 1
            formats[req.fmt] = formats.get(req.fmt, 0) + 1
            modulus = req.q - req.chi
            repeats += modulus in seen
            seen.add(modulus)
        out = {
            "requests": total,
            "kind_share": {k: round(v / total, 4) for k, v in sorted(kinds.items())},
        }
        if self.workload == "oracle":
            out["qmax"] = self.requests[0].qmax
        else:
            out["repeat_modulus_share"] = round(repeats / total, 4)
        if self.workload == "catalog":
            out["format_share"] = {k: round(v / total, 4) for k, v in sorted(formats.items())}
        return out


def session(spec: dict, replies: Replies) -> dict:
    """Run one session, then validate its replies into `replies`."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"replies-{spec['workload']}-seed{spec['seed']}.txt"
    out = _spawn([sys.executable, str(HERE / "session.py"),
                  json.dumps({**spec, "replies_path": str(path)})])
    result = json.loads(out.strip().splitlines()[-1])
    requests = islice(stream(spec["workload"], spec["seed"], spec["workers"]),
                      len(result["replies"]))
    replies.add(requests, result, path, spec.get("warmup", 0))
    return result


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """(value, rank, count): the sample with TAIL_BEYOND samples above it,
    or the maximum when there are too few samples."""
    xs = sorted(latencies)
    rank = len(xs) - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs)
    return xs[rank - 1], rank, len(xs)


def run_untraced(workload: str, seed: int, seconds: float, workers: int,
                 replies: Replies) -> tuple[list[float], int, list[float]]:
    """Latencies, peak resident set (KiB) and set-up samples of a timed
    run."""
    # One process first writes the bytecode caches.
    setup = measure_setup(1 + SETUP_FIRST)[1:]
    base = {"workload": workload, "seed": seed, "workers": workers,
            "warmup": WARMUP_ROUNDS[workload]}
    if workload != "oracle":
        result = session({**base, "budget_s": seconds, "rss_rounds": RSS_ROUNDS[workload],
                          "setup_probe": _SETUP_ARGV, "probes_per_round": SETUP_BETWEEN},
                         replies)
        latencies, maxrss = result["latencies"], result["maxrss_kb"]
        setup += result["setup"]
    else:
        latencies, maxrss = [], 0
        while not latencies or sum(latencies) < seconds:
            if latencies and len(setup) + SETUP_BETWEEN < SETUP_SAMPLES:
                setup += measure_setup(SETUP_BETWEEN)
            result = session({**base, "rounds": 1}, replies)
            latencies += result["latencies"]
            maxrss = max(maxrss, result["maxrss_kb"])
    setup += measure_setup(SETUP_SAMPLES - len(setup))
    return latencies, maxrss, setup


def _prefix(workload: str, seed: int) -> int:
    # Requests in the traced list, so the prefix digest of a timed run and
    # the digest of a traced run cover the same replies.
    n = 0
    for req in stream(workload, seed, 1):
        if req.round >= TRACE_ROUNDS[workload]:
            return n
        n += 1
    return n


def run_traced(workload: str, seed: int, workers: int,
               plain: Replies, traced: Replies) -> tuple[dict, dict]:
    if workload == "oracle":
        workers = 1
    base = {"workload": workload, "seed": seed, "workers": workers,
            "rounds": TRACE_ROUNDS[workload]}
    untraced = session(base, plain)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    return untraced, session({**base, "trace": True, "spans_path": str(spans)}, traced)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that _spawn can end
    # the process group it started before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "redei" / "cli.py").is_file():
        print(f"error: no library at {SRC / 'redei'}; run from a full checkout",
              file=sys.stderr)
        return 2
    workers = len(os.sched_getaffinity(0))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"nproc={workers} python={platform.python_version()} "
          f"git_sha={_git_sha()} verify_workers={workers}")
    prefix = _prefix(args.workload, args.seed)
    replies = Replies(args.workload, prefix)
    try:
        if args.trace:
            plain = Replies(args.workload, prefix)
            untraced, result = run_traced(args.workload, args.seed, workers, plain, replies)
        else:
            lat, maxrss_kb, setup = run_untraced(
                args.workload, args.seed, args.seconds, workers, replies)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = len(replies.requests), replies.failed
    failures = replies.failures
    if args.trace:
        lat = result["latencies"]
        # Both passes count; tracing must not change a single reply.
        attempted += len(plain.requests)
        failed += plain.failed
        failures = (plain.failures + failures)[:_FAILURE_SAMPLES]
        same = plain.digest.hexdigest() == replies.digest.hexdigest()
        print(f"untraced and traced replies identical: {same}")
        failed += not same
    busy = sum(lat)
    print(f"mix={json.dumps(replies.mix(), sort_keys=True)}")
    print(f"outputs sha256: first {prefix} requests {replies.prefix_digest}; "
          f"all {len(replies.requests)} requests {replies.digest.hexdigest()}")
    print(f"failed_ratio={failed / attempted:.6f} ({failed} of {attempted})")
    for line in failures:
        print(f"failure: {line}")
    if args.trace:
        metrics = result["layers"]
        metrics["cli.output_bytes"] = _metric(replies.output_bytes, "bytes")
        metrics["trace.overhead_ratio"] = _metric(busy / sum(untraced["latencies"]), "ratio")
        if args.workload == "oracle":
            print("traced oracle: verify ran with --workers 1, sweeps in-process in run_all order")
        print(f"spans: {result.get('spans')}")
    else:
        print(f"measured {len(lat)} requests in {busy:.3f} s of request time "
              f"after {WARMUP_ROUNDS[args.workload]} warm-up round(s)")
        value, rank, count = tail(lat)
        print(f"latency tail: rank {rank} of {count} "
              f"(p{100 * rank / count:.1f}, {count - rank} samples beyond)")
        print(f"setup samples: {' '.join(f'{s:.4f}' for s in setup)}")
        metrics = {
            "throughput_rps": _metric(len(lat) / busy, "1/s"),
            "latency_p50_s": _metric(statistics.median(lat), "s"),
            "latency_tail_s": _metric(value, "s"),
            "checks_per_s": _metric(replies.checks / busy, "1/s"),
            "setup_s": _metric(min(setup), "s"),
            "peak_rss_mb": _metric(maxrss_kb / 1024, "MB"),
        }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
