"""cyclohouse benchmark: four seeded workloads, one command.

Run from the root of a checkout:

    python3 bench/run.py --workload scan --seed 1 --seconds 15 --trace 0

Workloads (single process, closed loop, one client):

* ``scan``    -- scan_roots_of_unity over seeded maps (CycNum arithmetic),
* ``house``   -- house, in_PA, is_root_of_unity, loxton_decompose on
  seeded sums of roots of unity (house accumulation, precision ladder),
* ``witness`` -- avoidance_verdict, witness_search_deg2, is_special on
  planted and random maps (ratfunc, special, witness),
* ``cli``     -- cold ``python -m cyclohouse.cli`` subprocesses over all
  20 subcommands (interpreter, import, cold tables, parser, formatting).

Each run builds a fixed pool of queries from the seed and sets up: import
plus the warm-up pass, one copy of every slot of the pool, which fills
the lru caches (for ``cli``, a process that only imports
``cyclohouse.cli``).  ``setup_s`` is the median of three set-ups (five
for ``cli``).  The run then sends rounds of queries, each pool query once
per round in a seeded random order, until ``--seconds`` have elapsed and
the first round is complete.

Every time is CPU time (of this process, or of the CLI child), so time
the host's scheduler gives to other tenants is not counted, scaled to a
reference host speed by the probe that runs before each query (see
``probe``).  A query's latency is the median of its executions; median,
tail and throughput are taken over the pool's queries (see
``end_to_end``).  The process and its children run on one CPU.  Every query's
first answer is checked by ``oracle``, which does not use the code under
test, and every later answer must equal it.  ``attempted`` counts the
pool's queries and ``failed`` those that failed, so both follow from the
seed alone.
With ``--trace 1`` a separate traced run reports per-layer counts and
self time instead of the end-to-end metrics.

The last line of standard output is the result object; the line before
it carries the environment, the tail percentile and the failures.
``--record-reference`` rewrites ``reference.json``, the answer digests of
the reference pools, against which traced runs count changed outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 0
WORKLOADS = ("scan", "house", "witness", "cli")
# Set-up samples per run; the median is reported.
SETUP_SAMPLES = {"scan": 3, "house": 3, "witness": 3, "cli": 5}
# Probes run before and after each set-up sample, to gauge the host's speed.
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 170

import gen  # noqa: E402  (benchmark modules live beside this file)
import oracle  # noqa: E402
import probe  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def answer_text(answer) -> str:
    """Canonical text of an answer: (text, crash) of a library query, or
    (exit code, stdout) of a CLI command."""
    a, b = answer
    return f"{a}\n{b}" if isinstance(a, int) else (a if a is not None else b)


def record_digests(workload: str, seed: int, pool, answers) -> str:
    """Write the digest of every answer to .bench_out; return their joint digest."""
    digests = {q["key"]: digest(answer_text(a)) for q, a in zip(pool, answers)}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"digests_{workload}_{seed}.json").write_text(json.dumps(digests, indent=1))
    return digest("".join(digests.values()))


def environment(seed: int) -> dict:
    import mpmath

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu": cpu,
        "seed": seed,
    }


def import_package():
    """Import cyclohouse from ./src of this checkout, and nowhere else."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("cyclohouse")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: cyclohouse imported from {pkg.__file__}, not from {SRC}")
    return pkg


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# -- metrics -----------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    idx = max(0, n - 11)
    return xs[idx], 100.0 * (idx + 1) / n, n


def scaled(samples: list[tuple[int, float, float]]) -> list[tuple[int, float]]:
    """(pool index, CPU seconds scaled to the reference speed) of timed
    samples (pool index, CPU seconds, CPU seconds of the probe before it)."""
    speed = probe.local_medians([p for _i, _cpu, p in samples])
    return [(i, cpu * probe.REFERENCE_S / s) for (i, cpu, _p), s in zip(samples, speed)]


def end_to_end(setup: list[float], samples: list[tuple[int, float, float]], n: int,
               rss_mb: float, attempted: int, failed: int) -> tuple[dict, dict]:
    """The end-to-end metrics from the set-up times (already scaled) and
    the timed samples (pool index, CPU seconds, probe CPU seconds) of a
    pool of ``n`` queries.

    Each time is scaled to the reference speed of ``probe``.  A query's
    latency is the median of its scaled executions; the median and the
    tail are taken over the pool's queries, and the throughput is the pool
    size over the sum of their latencies: the rate one client sustains
    over whole passes, whichever query the run ended on."""
    per_query = [[] for _ in range(n)]
    for i, t in scaled(samples):
        per_query[i].append(t)
    latency = [statistics.median(xs) for xs in per_query]
    value, pct, count = tail(latency)
    probes = [p for _i, _cpu, p in samples]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_qps": (n / sum(latency), "1/s"),
        "latency_p50_ms": (statistics.median(latency) * 1000, "ms"),
        "latency_tail_ms": (value * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    raw = [statistics.median(cpu for j, cpu, _p in samples if j == i) for i in range(n)]
    details = {
        "latency_tail": {"percentile": round(pct, 2), "samples": count},
        "failed_ratio": failed / attempted,
        "setup_samples_s": setup,
        "executions": len(samples),
        "passes": round(len(samples) / n, 2),
        # The host's speed during the run, relative to the reference, and
        # the unscaled CPU-time figures.
        "host_speed": probe.REFERENCE_S / statistics.median(probes),
        "unscaled": {"throughput_qps": n / sum(raw),
                     "latency_p50_ms": statistics.median(raw) * 1000},
    }
    return metrics, details


def emit(workload: str, seed: int, metrics: dict, details: dict, statuses: list,
         attempted: int, failed: int, answers_digest: str) -> None:
    failures = [s for s in statuses if s["status"] != oracle.OK]
    details = dict(details, answers_digest=answers_digest, failures=failures[:30],
                   failure_count=len(failures))
    print(json.dumps({"workload": workload, "env": environment(seed), "details": details}))
    print(json.dumps({
        "correct": not any(s["status"] == oracle.WRONG for s in statuses),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- library workloads ---------------------------------------------------------------


def execute(run_query, q):
    """(answer text or None, raw, crash text) of one library query."""
    try:
        text, raw = run_query(q)
        return text, raw, None
    except Exception:  # an undocumented outcome: counted as a failure
        return None, None, traceback.format_exc(limit=3)


def run_pass(pool, run_query, tracer=None):
    """One pass over the pool in order: [(answer text or None, raw, crash text)]."""
    out = []
    for i, q in enumerate(pool):
        if tracer is not None:
            tracer.query_id = i
        out.append(execute(run_query, q))
    return out


def timed_loop(n: int, seed: int, seconds: float, run_one):
    """Closed loop over pool indices: rounds that run every query once, in a
    seeded random order, until ``seconds`` of wall time have passed and the
    first round is complete.  ``run_one(i)`` returns (answer, CPU seconds);
    the probe gauges the host's speed before each query.  Returns
    [(index, CPU seconds, probe CPU seconds, answer)] in the order run."""
    rng = random.Random(f"order:{seed}")
    samples, order, rounds = [], [], 0
    start = time.perf_counter()
    while True:
        if not order:
            rounds += 1
            order = list(range(n))
            rng.shuffle(order)
        if rounds > 1 and time.perf_counter() - start >= seconds:
            return samples
        i = order.pop()
        p = probe.gauge_s()
        answer, cpu = run_one(i)
        samples.append((i, cpu, p, answer))


def scaled_setup(measure) -> tuple[float, object]:
    """(CPU seconds of ``measure()`` scaled to the reference speed by probes
    run just before and after it, its result)."""
    before = [probe.probe_s() for _ in range(SETUP_PROBES)]
    cpu, result = measure()
    after = [probe.probe_s() for _ in range(SETUP_PROBES)]
    return cpu * probe.REFERENCE_S / statistics.median(before + after), result


def check_answers(pool, first) -> list[dict]:
    statuses = []
    for q, (text, raw, crash) in zip(pool, first):
        if crash is not None:
            status, detail = "crashed", crash.strip().splitlines()[-1]
        else:
            try:
                status, detail = oracle.check_library(q, text, raw)
            except Exception as exc:  # a malformed answer the checker cannot read
                status, detail = oracle.WRONG, f"unreadable answer: {exc!r}"
        statuses.append({"key": q["key"][:160], "status": status, "detail": detail})
    return statuses


def count_failed(statuses, repeats, first) -> int:
    """Queries that failed: the checker refused the first answer, or a later
    answer differs from it.  ``repeats`` holds (index, answer) pairs."""
    changed = {i for i, answer in repeats if answer != first[i]}
    for i in changed:
        statuses[i] = dict(statuses[i], status="changed", detail="answer differs between runs")
    return sum(s["status"] != oracle.OK for s in statuses)


def warm_up(pool, run_query):
    """The set-up pass: one copy of every slot, which fills the caches."""
    return [execute(run_query, q) for q in pool if q["copy"] == 0]


def library_setup(workload: str, seed: int):
    """Import plus the warm-up pass.  Returns the set-up time (CPU time,
    scaled), the pool, the warm-up answers and the query runner."""
    pool = gen.pool(workload, seed)

    def measure():
        t0 = time.process_time()
        import_package()
        from queries import run_query

        warm = warm_up(pool, run_query)
        return time.process_time() - t0, (warm, run_query)

    setup_s, (warm, run_query) = scaled_setup(measure)
    return setup_s, pool, warm, run_query


def setup_subprocess(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up run failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_library(workload: str, seed: int, seconds: float) -> None:
    setup_s, pool, warm, run_query = library_setup(workload, seed)

    def run_one(i):
        t0 = time.thread_time()
        answer = execute(run_query, pool[i])
        return answer, time.thread_time() - t0

    samples = timed_loop(len(pool), seed, seconds, run_one)
    rss = peak_rss_mb(resource.RUSAGE_SELF)
    first = [None] * len(pool)
    for i, _cpu, _p, answer in samples:
        if first[i] is None:
            first[i] = answer
    statuses = check_answers(pool, first)
    answers = [(t, c) for t, _r, c in first]
    warm_indices = [i for i, q in enumerate(pool) if q["copy"] == 0]
    repeats = [(i, (t, c)) for i, _cpu, _p, (t, _r, c) in samples]
    repeats += [(i, (t, c)) for i, (t, _r, c) in zip(warm_indices, warm)]
    failed = count_failed(statuses, repeats, answers)
    setup = [setup_s] + [setup_subprocess(workload, seed) for _ in range(SETUP_SAMPLES[workload] - 1)]
    metrics, details = end_to_end(setup, [x[:3] for x in samples], len(pool), rss,
                                  len(pool), failed)
    emit(workload, seed, metrics, details, statuses, len(pool), failed,
         record_digests(workload, seed, pool, answers))


def trace_metrics(snap: dict, traced_wall_s: float, *, import_s: float, overhead: float,
                  found_ratio: float, changed: int) -> dict:
    """Every per-layer metric of a traced run."""
    from tracer import layer_metrics

    metrics = layer_metrics(snap, traced_wall_s)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["witness.found_ratio_planted"] = (found_ratio, "ratio")
    metrics["outputs_changed"] = (changed, "count")
    return metrics


def found_ratio_planted(pool, first) -> float:
    planted = [
        text for q, (text, _r, _c) in zip(pool, first)
        if q["op"] == "witness-search" and q["facts"].get("found_expected")
    ]
    if not planted:
        return 0.0
    return sum(t is not None and json.loads(t)["witness"] is not None for t in planted) / len(planted)


def outputs_changed(workload: str, pool, answers) -> int:
    """Answers of the reference pool whose digest differs from reference.json."""
    ref = json.loads(REFERENCE.read_text())[workload]
    return sum(ref.get(q["key"]) != digest(answer_text(a)) for q, a in zip(pool, answers))


def run_library_traced(workload: str, seed: int) -> None:
    from tracer import Tracer, caller_view

    pool = gen.pool(workload, seed)
    import_package()
    from queries import run_query

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    first = run_pass(pool, run_query, tracer=tracer)
    cold_s = time.perf_counter() - t0
    cold_self = {name: self_s for name, (_c, self_s) in tracer.stats.items()}
    cold_under = dict(tracer.arith_under)
    t0 = time.perf_counter()
    warm = run_pass(pool, run_query, tracer=tracer)
    traced_s = time.perf_counter() - t0
    tracer.uninstall()
    overhead = tracing_overhead(pool, run_query, traced_s)
    ref_pool = gen.pool(workload, REFERENCE_SEED)
    ref = run_pass(ref_pool, run_query)
    metrics = trace_metrics(
        tracer.snapshot(), cold_s + traced_s, import_s=0.0,
        overhead=overhead, found_ratio=found_ratio_planted(pool, first),
        changed=outputs_changed(workload, ref_pool, [(t, c) for t, _r, c in ref]),
    )
    statuses = check_answers(pool, first)
    failed = count_failed(statuses, [(i, a[0::2]) for i, a in enumerate(warm)],
                          [a[0::2] for a in first])
    write_spans(workload, seed, tracer.spans)
    warm_self = {name: self_s - cold_self.get(name, 0.0)
                 for name, (_c, self_s) in tracer.stats.items()}
    warm_self["other"] = max(0.0, traced_s - sum(warm_self.values()))
    cold_self["other"] = max(0.0, cold_s - sum(cold_self.values()))
    warm_under = {k: v - cold_under.get(k, 0.0) for k, v in tracer.arith_under.items()}
    details = {
        "self_time_share": shares(warm_self),
        "self_time_share_setup": shares(cold_self),
        "share_arithmetic_to_caller": shares(caller_view(warm_self, warm_under)),
    }
    emit(workload, seed, metrics, details, statuses, len(pool), failed,
         record_digests(workload, seed, pool, [(t, c) for t, _r, c in first]))


def tracing_overhead(pool, run_query, traced_s: float) -> float:
    """Traced over untraced wall time of warm passes, alternating the two so
    that drift in machine speed affects both, about two seconds of each.
    The per-layer counts come from the first traced passes only, so these
    passes use a tracer of their own."""
    from tracer import Tracer

    rounds = max(1, min(5, round(2.0 / max(traced_s, 1e-3))))
    traced = untraced = 0.0
    for _ in range(rounds):
        t0 = time.perf_counter()
        run_pass(pool, run_query)
        untraced += time.perf_counter() - t0
        probe = Tracer()
        probe.install()
        t0 = time.perf_counter()
        run_pass(pool, run_query, tracer=probe)
        traced += time.perf_counter() - t0
        probe.uninstall()
    return traced / untraced


def shares(self_s: dict[str, float]) -> dict:
    """The eight largest self times, as shares of their sum."""
    total = sum(self_s.values()) or 1.0
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
    return {k: round(v / total, 4) for k, v in top}


def write_spans(workload: str, seed: int, spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans_{workload}_{seed}.jsonl", "w") as fh:
        for name, t0, t1, sid, parent, qid in spans:
            fh.write(json.dumps({"name": name, "start": t0, "end": t1, "id": sid,
                                 "parent": parent, "query": qid}) + "\n")


# -- cli workload ------------------------------------------------------------------


def cli_command(argv: list[str], traced_snapshot: Path | None = None):
    """(exit code, stdout) of one CLI process."""
    return cli_command_cpu(argv, traced_snapshot)[0]


def cli_command_cpu(argv: list[str], traced_snapshot: Path | None = None):
    """((exit code, stdout), CPU seconds of the child) of one CLI process."""
    if traced_snapshot is None:
        cmd = [sys.executable, "-m", "cyclohouse.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "cli_trace.py"), str(traced_snapshot), *argv]
    before = children_cpu_s()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT, env=child_env())
    return (proc.returncode, proc.stdout), children_cpu_s() - before


def children_cpu_s() -> float:
    """User plus system CPU time of every child process that has ended."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def cli_pass(pool, trace_dir: Path | None = None):
    return [
        cli_command(q["args"]["argv"], trace_dir / f"{i}.json" if trace_dir is not None else None)
        for i, q in enumerate(pool)
    ]


def cli_setup_sample() -> float:
    """CPU time of a process that only imports ``cyclohouse.cli``, scaled."""
    def measure():
        before = children_cpu_s()
        subprocess.run([sys.executable, "-c", "import cyclohouse.cli"], check=True,
                       timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=child_env())
        return children_cpu_s() - before, None

    return scaled_setup(measure)[0]


def check_cli_answers(pool, first) -> list[dict]:
    statuses = []
    for q, (code, stdout) in zip(pool, first):
        try:
            status, detail = oracle.check_cli(q, code, stdout)
        except Exception as exc:
            status, detail = oracle.WRONG, f"unreadable answer: {exc!r}"
        statuses.append({"key": q["key"][:160], "status": status, "detail": detail})
    return statuses


def run_cli(seed: int, seconds: float) -> None:
    pool = gen.pool("cli", seed)
    setup = [cli_setup_sample() for _ in range(SETUP_SAMPLES["cli"])]
    samples = timed_loop(len(pool), seed, seconds,
                         lambda i: cli_command_cpu(pool[i]["args"]["argv"]))
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    # Each command is a cold process, so its first timed answer is the one checked.
    first = [None] * len(pool)
    for i, _cpu, _p, answer in samples:
        if first[i] is None:
            first[i] = answer
    statuses = check_cli_answers(pool, first)
    failed = count_failed(statuses, [(i, a) for i, _cpu, _p, a in samples], first)
    metrics, details = end_to_end(setup, [x[:3] for x in samples], len(pool), rss,
                                  len(pool), failed)
    emit("cli", seed, metrics, details, statuses, len(pool), failed,
         record_digests("cli", seed, pool, first))


def run_cli_traced(seed: int) -> None:
    from tracer import caller_view, merge

    pool = gen.pool("cli", seed)
    t0 = time.perf_counter()
    cli_pass(pool)
    untraced_s = time.perf_counter() - t0
    trace_dir = OUT_DIR / f"cli_trace_{seed}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    first = cli_pass(pool, trace_dir=trace_dir)
    traced_s = time.perf_counter() - t0
    snaps = [json.loads((trace_dir / f"{i}.json").read_text()) for i in range(len(pool))]
    merged = merge(snaps)
    ref_pool = gen.pool("cli", REFERENCE_SEED)
    ref = cli_pass(ref_pool)
    metrics = trace_metrics(
        merged, sum(s["wall_s"] for s in snaps), import_s=sum(s["import_s"] for s in snaps),
        overhead=traced_s / untraced_s, found_ratio=0.0,
        changed=outputs_changed("cli", ref_pool, ref),
    )
    statuses = check_cli_answers(pool, first)
    failed = sum(s["status"] != oracle.OK for s in statuses)
    self_s = {k[: -len(".self_s")]: v for k, (v, _u) in metrics.items() if k.endswith(".self_s")}
    self_s["cli.import"] = metrics["cli.import_s"][0]
    details = {
        "self_time_share": shares(self_s),
        "share_arithmetic_to_caller": shares(caller_view(self_s, merged["arith_under"])),
    }
    emit("cli", seed, metrics, details, statuses, len(pool), failed,
         record_digests("cli", seed, pool, first))


# -- reference digests ------------------------------------------------------------------


def record_reference() -> None:
    import_package()
    from queries import run_query

    ref = {}
    for workload in WORKLOADS:
        pool = gen.pool(workload, REFERENCE_SEED)
        if workload == "cli":
            answers = cli_pass(pool)
        else:
            answers = [(t, c) for t, _r, c in run_pass(pool, run_query)]
        ref[workload] = {q["key"]: digest(answer_text(a)) for q, a in zip(pool, answers)}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if not (SRC / "cyclohouse" / "__init__.py").is_file():
        print(f"error: no cyclohouse package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    # One CPU for this process and its children, so that the probe gauges
    # the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_only:  # a set-up sample of a library workload, run in its own process
        if args.workload == "cli":
            ap.error("--setup-only applies to the library workloads")
        print(json.dumps({"setup_s": library_setup(args.workload, args.seed)[0]}))
        return 0
    if args.workload == "cli" and args.trace:
        run_cli_traced(args.seed)
    elif args.workload == "cli":
        run_cli(args.seed, args.seconds)
    elif args.trace:
        run_library_traced(args.workload, args.seed)
    else:
        run_library(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
