"""The committed end-to-end benchmark points (``BENCH_e2e.json``).

Each point is one ``perfbench/run.py --trace 0`` run of one commit: its
SHA, PR number and ``src`` tree, the workload, seed, run seconds and
round, run.py's ``env`` line and its final JSON object. The file must
name only the workloads and metrics that BENCHMARK.json defines, hold no
run with a failed op, and hold each (SHA, workload, seed, round) once.
Points come in alternated parent/child pairs: each (workload, seed,
round) holds exactly two points, of two different SHAs, measured alike:
the same run seconds and the same ``env`` (Python, numpy, BLAS, BLAS
threads, cores, machine) but for its seed. No timing is asserted: the
numbers depend on the machine.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
POINTS = json.loads((ROOT / "BENCH_e2e.json").read_text())["points"]
FIELDS = {"sha", "pr", "src_tree", "workload", "seed", "seconds", "round", "env", "result"}


def test_points_exist():
    assert POINTS


@pytest.mark.parametrize("i", range(len(POINTS)))
def test_point_is_a_clean_run_of_a_named_workload(i):
    point = POINTS[i]
    assert FIELDS <= set(point)
    for sha in (point["sha"], point["src_tree"]):
        assert len(sha) == 40 and int(sha, 16) >= 0
    assert isinstance(point["pr"], int) and isinstance(point["round"], int)
    assert point["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert point["env"]["seed"] == point["seed"]
    result = point["result"]
    assert result["failed"] == 0 and result["attempted"] > 0
    named = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert result["metrics"] and set(result["metrics"]) <= named


def test_each_run_appears_once():
    keys = [(p["sha"], p["workload"], p["seed"], p["round"]) for p in POINTS]
    assert len(keys) == len(set(keys))


def test_runs_come_in_parent_child_pairs():
    pairs = {}
    for p in POINTS:
        pairs.setdefault((p["workload"], p["seed"], p["round"]), []).append(p["sha"])
    for key, shas in pairs.items():
        assert len(shas) == 2 and shas[0] != shas[1], key


def test_the_two_points_of_a_pair_are_measured_alike():
    pairs = {}
    for p in POINTS:
        env = {k: v for k, v in p["env"].items() if k != "seed"}
        pairs.setdefault((p["workload"], p["seed"], p["round"]), []).append(
            (p["seconds"], env)
        )
    for key, (a, b) in pairs.items():
        assert a == b, key
