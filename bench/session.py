"""One benchmark session: a fresh process that imports `redei`, sends a
workload's seeded requests through `redei.cli.main(argv)` one after the
other with stdout written to a replies file, and prints one JSON object
describing what happened.

    python3 bench/session.py '{"workload": "lookup", "seed": 1, ...}'

Spec keys: workload, seed, workers, budget_s (once this much request time
has been measured, stop at the end of the current round), rounds (or: run
exactly the first this many rounds), warmup (leading rounds sent but not
measured), rss_rounds (run at least this many rounds, and report the peak
resident set as it stood at the end of them), setup_probe and
probes_per_round (run the probe command, which prints its own import time,
this many times before each of rounds 1 to rss_rounds - 1, so that set-up
samples are spread through the run), replies_path (where stdout of every
request goes, one reply after the other), trace (record spans), spans_path
(where a traced session writes them).

The session does not validate replies: bench/run.py reads the replies file
after the session has ended, so the validators' memory never counts towards
the session's peak resident set.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import redei  # noqa: E402
import redei.cli  # noqa: E402
from redei import numthy  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import stream  # noqa: E402

_NUMTHY_CACHES = ("factorize", "euler_phi", "divisors", "_order_reduced")
# Taken before tracing replaces the module attributes.
_CACHES = {name: getattr(numthy, name) for name in _NUMTHY_CACHES}


def _cache_infos() -> dict:
    return {name: fn.cache_info() for name, fn in _CACHES.items()}


def _run_cli(argv: list[str], out) -> tuple[int | None, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = redei.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, err.getvalue()


def _maxrss_kb() -> int:
    # Pool workers count once they have ended, as they have after `verify`.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def run(spec: dict) -> dict:
    workload, seed = spec["workload"], spec["seed"]
    budget, rounds = spec.get("budget_s"), spec.get("rounds")
    warmup, rss_rounds = spec.get("warmup", 0), spec.get("rss_rounds")
    tracer = None
    if spec.get("trace"):
        tracer = tracing.Tracer()
        before = _cache_infos()
        tracing.install(tracer)
        run_cli = tracer.wrap(_run_cli, "request")
    else:
        run_cli = _run_cli

    latencies: list[float] = []
    # One [exit code, start offset, end offset, stderr tail] per request.
    replies: list[list] = []
    last_round = -1
    measured = 0.0
    maxrss_kb = None
    setup: list[float] = []
    probe_rounds = range(1, rss_rounds) if spec.get("setup_probe") else ()
    min_rounds = rss_rounds or 0
    with open(spec["replies_path"], "w", encoding="utf-8", newline="") as out:
        for index, req in enumerate(stream(workload, seed, spec["workers"])):
            if rounds is not None and req.round >= rounds:
                break
            if req.round == rss_rounds and maxrss_kb is None:
                maxrss_kb = _maxrss_kb()
            if (budget is not None and measured >= budget and req.round > last_round
                    and req.round >= min_rounds):
                break
            if req.round in probe_rounds and req.round > last_round:
                for _ in range(spec["probes_per_round"]):
                    setup.append(float(subprocess.run(
                        spec["setup_probe"], capture_output=True, text=True, check=True,
                    ).stdout))
            if tracer is not None:
                tracer.request = index
            begin = out.tell()
            start = time.perf_counter()
            code, err = run_cli(list(req.argv), out)
            elapsed = time.perf_counter() - start
            if req.round >= warmup:
                measured += elapsed
                latencies.append(elapsed)
            last_round = req.round
            replies.append([code, begin, out.tell(), err.strip()[-300:] if code != 0 else ""])

    if maxrss_kb is None:
        maxrss_kb = _maxrss_kb()
    result = {"latencies": latencies, "replies": replies, "maxrss_kb": maxrss_kb,
              "setup": setup}
    if tracer is not None:
        result["layers"] = _layers(tracer, before)
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
            result["spans"] = {"kept": len(tracer.span_start), "dropped": tracer.dropped}
    return result


def _hit_ratio(before, after) -> float:
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    return hits / lookups if lookups else 0.0


def _layers(tracer: tracing.Tracer, before: dict) -> dict:
    after = _cache_infos()
    out = {}
    stat = tracer.stat

    def put(name: str, value, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    put("numthy.mult_order.calls", stat("numthy.mult_order")["calls"], "count")
    put("numthy.mult_order.self_s", stat("numthy.mult_order")["self_s"], "s")
    put("numthy.divisors.items", stat("numthy.divisors")["items"], "count")
    for name in ("euler_phi", "factorize", "divisors"):
        put(f"numthy.{name}.hit_ratio", _hit_ratio(before[name], after[name]), "ratio")
    put("numthy.is_prime.calls", stat("numthy.is_prime")["calls"], "count")
    put("numthy.is_prime.self_s", stat("numthy.is_prime")["self_s"], "s")
    put("numthy.factorize.self_s", stat("numthy.factorize")["self_s"], "s")
    put("numthy.cache_entries", sum(info.currsize for info in after.values()), "count")
    cs = stat("cyclestruct.cycle_structure")
    put("cyclestruct.cycle_structure.calls", cs["calls"], "count")
    put("cyclestruct.cycle_structure.self_s", cs["self_s"], "s")
    put("cyclestruct.cycle_structure.total_s", cs["total_s"], "s")
    ss = stat("cyclestruct.shares_cycle_structure")
    put("cyclestruct.shares_cycle_structure.calls", ss["calls"], "count")
    put("cyclestruct.shares_cycle_structure.self_s", ss["self_s"], "s")
    sc = stat("catalog.structure_classes")
    put("catalog.structure_classes.self_s", sc["self_s"], "s")
    put("catalog.structure_classes.total_s", sc["total_s"], "s")
    sp = stat("catalog.structure_pairs")
    put("catalog.structure_pairs.self_s", sp["self_s"], "s")
    put("catalog.structure_pairs.items", sp["items"], "count")
    put("catalog.isolated_values.self_s", stat("catalog.isolated_values")["self_s"], "s")
    fam = stat("families")
    put("families.calls", fam["calls"], "count")
    put("families.total_s", fam["total_s"], "s")
    mul, pw = stat("gf.Field.mul"), stat("gf.Field.pow")
    put("gf.Field.mul.calls", mul["calls"], "count")
    put("gf.Field.mul.self_s", mul["self_s"], "s")
    put("gf.Field.inv.calls", stat("gf.Field.inv")["calls"], "count")
    put("gf.Field.pow.calls", pw["calls"], "count")
    put("gf.Field.pow.self_s", pw["self_s"], "s")
    put("gf.build_field.self_s", stat("gf.build_field")["self_s"], "s")
    put("gf.first_with_character.self_s", stat("gf.first_with_character")["self_s"], "s")
    bp, pm = stat("maps.build_permutation"), stat("maps.power_map_structure")
    put("maps.build_permutation.calls", bp["calls"], "count")
    put("maps.build_permutation.self_s", bp["self_s"], "s")
    put("maps.build_permutation.total_s", bp["total_s"], "s")
    put("maps.cycle_decomposition.self_s", stat("maps.cycle_decomposition")["self_s"], "s")
    put("maps.power_map_structure.calls", pm["calls"], "count")
    put("maps.power_map_structure.self_s", pm["self_s"], "s")
    put("maps.power_map_structure.total_s", pm["total_s"], "s")
    put("maps.mult_map_structure.self_s", stat("maps.mult_map_structure")["self_s"], "s")
    for row in tracing.VERIFY_ROWS:
        sweep = stat(f"verify.{row}")
        put(f"verify.{row}.checks", sweep["items"], "count")
        put(f"verify.{row}.self_s", sweep["self_s"], "s")
    put("verify.run_all.total_s", stat("verify.run_all")["total_s"], "s")
    put("cli.main.self_s", stat("cli.main")["self_s"], "s")
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = run(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
