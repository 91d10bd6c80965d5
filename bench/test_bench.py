"""Smoke checks of the benchmark harness itself (not part of the kscert test
suite):

    python3 -m pytest bench

A tiny run of each workload, the output checks, the JSON contract against
BENCHMARK.json, the reference-speed sampling, and the span self-time
arithmetic.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

import run

run._import_kscert()

import gen  # noqa: E402
import plan  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return gen.make_inputs(random.Random(3), str(tmp_path_factory.mktemp("inputs")))


def test_inputs_are_deterministic_per_seed(tmp_path):
    first = gen.make_inputs(random.Random(5), str(tmp_path / "a"))
    again = gen.make_inputs(random.Random(5), str(tmp_path / "b"))
    for x, y in zip([first.peres24, first.kp40, *first.near_miss],
                    [again.peres24, again.kp40, *again.near_miss]):
        assert Path(x.path).read_text() == Path(y.path).read_text()
    for rays in first.near_miss:
        full = first.catalog_rays[rays.name.rsplit("-minus-", 1)[0]]
        assert 1 <= len(full.labels) - len(rays.labels) <= 3


def test_witness_check_rejects_bad_colourings(inputs):
    rays = inputs.near_miss[0]
    assert rays.witness_error({label: 0 for label in rays.labels}).startswith("basis")
    assert rays.witness_error({label: 1 for label in rays.labels}).startswith("orthogonal")


def test_dichotomic_values():
    assert plan.dichotomic_values(gen.RaySet("c", 4, [], [], set(range(63)), list(range(9)))) == (131, 135)
    assert plan.dichotomic_values(gen.RaySet("p", 3, [], [], set(range(72)), list(range(16)))) == (132, 136)


@pytest.mark.parametrize("workload", sorted(plan.WORKLOADS))
def test_each_command_of_each_workload_passes_its_check(workload, inputs):
    cmds = plan.build(workload, inputs, random.Random(1))
    assert any(c.kind == "verify" for c in cmds) and any(c.kind == "derive" for c in cmds)
    seen = set()
    for cmd in cmds:
        key = tuple(cmd.argv)
        # the KP-40 derive alone takes ~20 s; its check runs in the benchmark
        if key in seen or (cmd.argv[0] == "derive" and cmd.argv[-1] == inputs.kp40.path):
            continue
        seen.add(key)
        error = run.run_command(cmd)
        assert error is None, (cmd.argv, error)


def test_a_wrong_answer_fails_its_check(inputs):
    cmd = plan.Command("verify", ["verify", "--catalog", "cabello-18"], plan._expect(2))
    assert run.run_command(cmd).startswith("exit 0")


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_json_line_matches_benchmark_json(monkeypatch, trace, key):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setitem(plan.WORKLOADS, "catalog-mix", lambda inp: plan.catalog_mix(inp)[:2])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "catalog-mix", "--seed", "2", "--seconds", "0.01", "--trace", str(trace)])
    assert rc == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_speed_samples_the_reference_during_a_call_and_leaves_it_out():
    speed = run.Speed()
    before = len(speed.refs)
    start = run.perf_counter()
    result, seconds, scaled = speed.timed(lambda: sum(i * i for i in range(3_000_000)))
    outside = run.perf_counter() - start
    refs = speed.refs[before - 1:]
    assert result == sum(i * i for i in range(3_000_000))
    assert len(refs) >= 4  # before, after and at least two ticks during the call
    assert seconds < outside - 0.5 * sum(refs[1:-1])
    assert scaled == pytest.approx(seconds * run.REF_PASS_S * sum(1 / r for r in refs) / len(refs))


def test_self_time_arithmetic():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(20000))

    def outer(depth):
        leaf()
        if depth:
            outer(depth - 1)
        leaf()

    leaf = tracer._spanned(leaf, "poly.leaf")
    outer = tracer._spanned(outer, "derive.outer")
    outer(2)
    outer(0)
    summary = tracer.summary()
    by_name = summary["spans"]
    assert by_name["poly.leaf"]["calls"] == 8 and by_name["derive.outer"]["calls"] == 4
    # recursion is counted once in inclusive time
    roots = [end - start for name, start, end, parent in tracer.spans if parent < 0]
    assert by_name["derive.outer"]["s"] == pytest.approx(sum(roots))
    total_self = sum(agg["self_s"] for agg in by_name.values())
    assert total_self == pytest.approx(summary["root_s"])
    assert sum(summary["layer_self_s"].values()) == pytest.approx(summary["root_s"])
