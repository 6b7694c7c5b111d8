"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

import common  # noqa: E402
import serve  # noqa: E402

if common.SRC not in sys.path:
    sys.path.insert(0, common.SRC)

from repro.service.jobkey import canonical_json  # noqa: E402


# -- the percentile rule --------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert common.min_samples(50) == 20
    assert common.min_samples(95) == 200
    assert common.min_samples(99) == 1000
    with pytest.raises(ValueError):
        common.percentile(range(19), 50)
    with pytest.raises(ValueError):
        common.percentile(range(999), 99)
    assert common.percentile(range(20), 50) == pytest.approx(9.5)
    assert common.percentile(range(1001), 99) == pytest.approx(990.0)


def test_percentile_is_order_independent():
    values = [float((i * 7919) % 1000) for i in range(1000)]
    assert common.percentile(values, 95) == \
        common.percentile(sorted(values), 95)


def test_open_loop_count_supports_every_reported_percentile():
    for seconds in (1, 5, 12, 60):
        count = serve.open_loop_count(seconds, tails=True)
        colds = round(count * serve.COLD_SHARE)
        assert colds >= common.min_samples(95)
        assert count - colds >= common.min_samples(99)
        colds = round(serve.open_loop_count(seconds) * serve.COLD_SHARE)
        assert colds >= common.min_samples(50)


# -- seeded inputs --------------------------------------------------------


def test_schedule_and_mix_repeat_for_the_same_seed():
    a, b = serve.JobMix(7), serve.JobMix(7)
    assert a.warm == b.warm
    assert a.open_loop(1500) == b.open_loop(1500)
    assert a.closed_batch(50) == b.closed_batch(50)
    assert serve.JobMix(8).warm != a.warm


def test_schedule_shape():
    mix = serve.JobMix(3)
    schedule = mix.open_loop(1500)
    dues = [due for due, _cls, _job in schedule]
    assert dues == sorted(dues)
    # Poisson at RATE_RPS: the mean gap is within 10% of 1/rate.
    assert dues[-1] / len(dues) == pytest.approx(1 / serve.RATE_RPS,
                                                 rel=0.1)
    classes = [cls for _due, cls, _job in schedule]
    assert classes.count("cold") == round(1500 * serve.COLD_SHARE)
    warm_keys = {json.dumps(j, sort_keys=True) for j in mix.warm}
    assert len(warm_keys) == serve.WARM_KEYS > 256
    colds = [json.dumps(job, sort_keys=True)
             for _due, cls, job in schedule if cls == "cold"]
    assert len(set(colds)) == len(colds)
    assert not warm_keys & set(colds)
    batch = mix.closed_batch(400)
    assert [cls for cls, _job in batch].count("cold") == \
        round(400 * serve.COLD_SHARE)


# -- metric names ---------------------------------------------------------


def test_metric_names_match_the_pattern_and_the_manifest():
    names = [m[0] for m in common.END_TO_END + common.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert common.check_metric_name(name) == name
    for bad in ("", "a b", "p99%", "x" * 65, "é"):
        with pytest.raises(ValueError):
            common.check_metric_name(bad)
    manifest_path = os.path.join(common.ROOT, "BENCHMARK.json")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["end_to_end"]] == \
        [m[:3] for m in common.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == list(common.PER_LAYER)
    assert [w["name"] for w in manifest["workloads"]] == \
        list(common.WORKLOADS)


def test_result_line_shape():
    line = common.result_line(True, 3, 0, {
        "wall_s": common.metric(1.25, "s")})
    assert json.loads(line) == {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}}
    with pytest.raises(ValueError):
        common.result_line(True, 1, 0, {"bad name": common.metric(1, "s")})


# -- failure accounting ---------------------------------------------------


def _outcome(cls, record=None, error=None, due=0.0, done=0.002):
    outcome = serve.Outcome(cls, {"kind": "vector", "spec": {}}, due)
    outcome.sent = due
    outcome.done = done
    outcome.record = record
    outcome.error = error
    return outcome


def test_errored_or_wrong_digest_request_fails_and_misses_the_limit():
    good = _outcome("warm", {"status": "cached", "digest": "d"})
    errored = _outcome("warm", error="quota")
    wrong = _outcome("warm", {"status": "done", "digest": "other"})
    refused = _outcome("cold", {"status": "rejected", "digest": None})
    lost = _outcome("cold")          # no reply before the connection died
    assert good.ok("d") and good.latency_s("d") == pytest.approx(0.002)
    for outcome in (errored, wrong, refused, lost):
        assert not outcome.ok("d")
        assert outcome.latency_s("d") == common.FAILED_LATENCY_S
    digests = {canonical_json(good.job): "d"}
    outcomes = [good, errored, wrong, refused, lost]
    assert serve.count_failed(outcomes, digests) == 4


def test_failed_requests_move_the_tail():
    digests = {canonical_json({"kind": "vector", "spec": {}}): "d"}
    warm = [_outcome("warm", {"status": "cached", "digest": "d"})
            for _ in range(1000)]
    cold = [_outcome("cold", {"status": "done", "digest": "d"})
            for _ in range(200)]
    clean = serve.score(warm + cold, digests)
    for outcome in warm[:11]:
        outcome.error = "timeout"
    dirty = serve.score(warm + cold, digests)
    assert clean["warm_p99_ms"] == pytest.approx(2.0)
    assert dirty["warm_p99_ms"] == pytest.approx(
        common.FAILED_LATENCY_S * 1e3)
    assert dirty["warm_p50_ms"] == clean["warm_p50_ms"]


def test_env_scrub_removes_tier_and_directory_knobs():
    env = common.scrubbed_env({name: "1" for name in common.SCRUBBED_ENV}
                              | {"PYTHONPATH": "x", "HOME": "/h"})
    assert not set(common.SCRUBBED_ENV) & set(env)
    assert env["PYTHONPATH"].split(os.pathsep) == [common.SRC, "x"]
    assert env["HOME"] == "/h"
    assert env["OPENBLAS_NUM_THREADS"] == "1"


def test_calibration_is_a_short_positive_time():
    assert 0 < common.calibrate() < 1.0


def test_min_samples_matches_rule():
    for q in (50, 90, 95, 99):
        n = common.min_samples(q)
        assert common.samples_beyond(n, q) >= common.MIN_BEYOND
        assert common.samples_beyond(n - 1, q) < common.MIN_BEYOND
        assert not math.isnan(common.percentile(range(n), q))
