"""Tests of the benchmark itself: ``python3 -m pytest bench`` from the repo root."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gen
import oracle
import probe
import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    code = f"import json, gen; print(json.dumps(gen.pool({workload!r}, 11)))"
    outs = [
        subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True,
                       check=True, env=dict(os.environ, PYTHONHASHSEED=h)).stdout
        for h in ("1", "2")
    ]
    assert outs[0] == outs[1] == json.dumps(gen.pool(workload, 11)) + "\n"
    assert json.dumps(gen.pool(workload, 12)) != outs[0].strip()


def _house_query():
    return next(q for q in gen.pool("house", 3) if len(q["args"]["questions"]) == 9)


def test_checker_accepts_house_answers_and_rejects_a_shift_of_2_pow_minus_20():
    from queries import run_query

    q = _house_query()
    text, raws = run_query(q)
    assert oracle.check_library(q, text, raws) == (oracle.OK, "")
    hr = raws[1]  # the 256-bit enclosure
    terms = q["facts"]["terms"]
    assert oracle.check_house_result(terms, 256, hr.lower, hr.upper) is None
    shift = Fraction(1, 2**20)
    assert oracle.check_house_result(terms, 256, hr.lower + shift, hr.upper + shift)
    assert oracle.check_house_result(terms, 256, hr.lower - shift, hr.upper - shift)


def test_checker_rejects_a_wrong_membership_verdict():
    from queries import run_query

    q = _house_query()
    text, raws = run_query(q)
    answers = json.loads(text)
    above = answers[6]
    assert above["verdict"] == "member"
    answers[6] = dict(above, verdict="nonmember")
    assert oracle.check_library(q, json.dumps(answers), raws)[0] == oracle.WRONG


def test_checker_rejects_a_witness_with_one_root_of_unity_flipped():
    from queries import run_query

    h = "((x - 1)/z4)^5 + z3*((x - 1)/z4)^2"
    q = {"key": "t", "op": "witness-search", "args": {"h": h, "dmax": 4, "A": "2"},
         "facts": {"found_expected": True}}
    text, _raw = run_query(q)
    ans = json.loads(text)
    assert ans["witness"] is not None
    assert oracle.check_library(q, text, None) == (oracle.OK, "")
    beta = ans["witness"]["terms"][0]["beta"]
    order = max(beta["order"], 2)
    ans["witness"]["terms"][0]["beta"] = oracle.minimal_root(order, beta["exp"] + 1)
    assert oracle.check_library(q, json.dumps(ans), None)[0] == oracle.WRONG


def test_checker_rejects_a_scan_with_a_hit_dropped():
    from queries import run_query

    q = next(q for q in gen.pool("scan", 2) if "/" not in q["args"]["h"])
    q = dict(q, args=dict(q["args"], M=8))
    text, raw = run_query(q)
    ans = json.loads(text)
    assert ans["hits"]
    assert oracle.check_library(q, text, raw) == (oracle.OK, "")
    ans["hits"] = ans["hits"][1:]
    assert oracle.check_library(q, json.dumps(ans), raw)[0] == oracle.WRONG


def test_checker_decides_integrality_of_a_root_of_unity_at_conductor_1260():
    # Its characteristic polynomial is Phi_1260, but the partial products
    # reach 2^288: at 200 bits the checker called a root of unity non-integral.
    q = next(q for q in gen.pool("cli", 110) if q["key"] == "cli|integer\x1fz1260^1259 * z3")
    assert oracle.check_cli(q, 0, json.dumps({"integral": True}))[0] == oracle.OK
    assert oracle.check_cli(q, 0, json.dumps({"integral": False}))[0] == oracle.WRONG


def test_planted_2a_misses_count_as_failures():
    from queries import run_query

    q = next(q for q in gen.pool("witness", 1)
             if q["op"] == "witness-search" and q["args"]["h"].startswith("(2*x+1)^3"))
    text, _raw = run_query(q)
    assert oracle.check_library(q, text, None)[0] in (oracle.OK, oracle.MISSED)
    if json.loads(text)["witness"] is None:
        assert oracle.check_library(q, text, None)[0] == oracle.MISSED


def test_failures_count_queries_not_executions():
    statuses = [{"key": k, "status": st, "detail": ""}
                for k, st in (("a", oracle.OK), ("b", oracle.MISSED), ("c", oracle.OK))]
    # b fails its check on every execution; c's second answer differs from its first.
    repeats = [(0, "x"), (1, "y"), (1, "y"), (2, "z"), (2, "z2"), (0, "x")]
    assert run.count_failed(statuses, repeats, ["x", "y", "z"]) == 2
    assert statuses[2]["status"] == "changed"


def _spec_names(section):
    return [m["name"] for m in SPEC[section]]


def test_printer_emits_every_end_to_end_metric(capsys):
    # Two executions of each of 39 queries on a host at reference speed
    # (every probe takes REFERENCE_S); a query's latency is their median.
    ref = probe.REFERENCE_S
    samples = [(i, 0.01 * (i + 1), ref) for i in range(39)]
    samples += [(i, 0.03 * (i + 1), ref) for i in range(39)]
    metrics, details = run.end_to_end([1.0, 1.2, 1.1], samples, 39, 30.0, 39, 3)
    run.emit("scan", 1, metrics, details, [], 39, 3, "0" * 16)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == _spec_names("end_to_end")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    assert json.loads(lines[-2])["details"]["latency_tail"] == {"percentile": 74.36, "samples": 39}
    assert result["metrics"]["latency_p50_ms"]["value"] == pytest.approx(400.0)
    assert result["metrics"]["throughput_qps"]["value"] == pytest.approx(39 / 15.6)


def test_times_are_scaled_by_the_probe_around_them():
    # The host runs at half speed for the second half of the run: every
    # probe there takes twice as long, and so do the queries.
    ref = probe.REFERENCE_S
    samples = [(i % 4, 0.01, ref) for i in range(40)] + [(i % 4, 0.02, 2 * ref) for i in range(40)]
    assert [t for _i, t in run.scaled(samples)] == pytest.approx([0.01] * 80)


def test_printer_emits_every_per_layer_metric():
    from tracer import merge

    metrics = run.trace_metrics(merge([]), 1.0, import_s=0.1, overhead=1.2, found_ratio=0.5,
                                changed=0)
    assert sorted(metrics) == sorted(_spec_names("per_layer"))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(u == units[k] for k, (_v, u) in metrics.items())


def test_tracer_attributes_self_time_and_restores_the_package():
    import cyclohouse as ch
    from tracer import Tracer

    original = ch.cyclotomic.CycNum.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        h = ch.parse_ratfunc("(x^2 + 1)/(x - 3)")
        ch.scan_roots_of_unity(h, 6, 2)
    finally:
        tracer.uninstall()
    assert ch.cyclotomic.CycNum.__mul__ is original
    snap = tracer.snapshot()
    assert snap["stats"]["avoidance.scan_roots_of_unity"][0] == 1
    assert snap["inside"]["avoidance.scan_roots_of_unity>ratfunc.evaluate"] == 12
    assert snap["stats"]["cyclotomic.inverse"][0] >= 12
    assert all(self_s >= 0 for _c, self_s in snap["stats"].values())
