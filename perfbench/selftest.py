"""Self-test of the benchmark: correct outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

Runs small versions of the workloads for a fraction of a second each.
Every clean run must report ``failed == 0``; every run whose program
output is corrupted on purpose (NaN, perturbed, or a broken round trip)
must count the corrupted ops in ``failed``. Also checks that
BENCHMARK.json names exactly the workloads and metrics the code reports.
Exits 1 if any case fails.
"""

from __future__ import annotations

import contextlib
import json
import sys

import run

SECONDS = 0.3


@contextlib.contextmanager
def patched(owner, attr, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)`` for the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def check_manifest(harness, tracing) -> list[str]:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if tuple(w["name"] for w in manifest["workloads"]) != run.WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, specs in (("end_to_end", harness.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in manifest[key]]
        if listed != list(specs):
            problems.append(f"BENCHMARK.json {key} differs from the metrics the code reports")
    return problems


def main() -> int:
    run.use_repo_sources()
    import numpy as np

    import harness
    import tracing
    import workloads
    from flowstyle import experiments, flows, training

    run.OUT_DIR.mkdir(exist_ok=True)
    small = {
        "stylize": workloads.Stylize("stylize-small", "flow8-block2", size=16, hidden=8),
        # One block keeps 64 latent positions for 12 channels, so the
        # covariance WCT inverts has full rank.
        "leak": workloads.LeakTest("leak-small", "flow8-block1", size=16, hidden=8),
        "train": workloads.paper_workloads()["train-tiny"],
    }

    def nan_output(stylize):
        return lambda *a, **k: stylize(*a, **k) * np.nan

    def perturbed_output(stylize):
        return lambda *a, **k: stylize(*a, **k) + 1e-3

    def drifting_wct(leak_test):
        def corrupt(model, kind, *a, **k):
            report = leak_test(model, kind, *a, **k)
            if kind.name != "wct":
                return report
            drift = (0.0,) + (1.0,) * (report.rounds - 1)
            return experiments.LeakReport(report.rounds, report.ssim_vs_first, drift)

        return corrupt

    def nan_loss(train_step):
        def corrupt(*a, **k):
            result = train_step(*a, **k)
            return training.StepResult(result.content_loss, np.nan, result.total_loss)

        return corrupt

    def lossy_inverse(inverse):
        def corrupt(self, z, params=None):
            out = inverse(self, z, params)
            return out + 1e-6 if isinstance(out, np.ndarray) else out  # arrays only, not the tape

        return corrupt

    # (case, workload, patch or None, which ops must fail: "none", "some", "all")
    cases = [
        ("stylize clean", "stylize", None, "none"),
        ("stylize NaN output", "stylize", (experiments, "stylize", nan_output), "all"),
        ("stylize perturbed output", "stylize", (experiments, "stylize", perturbed_output), "some"),
        ("leak clean", "leak", None, "none"),
        ("leak wct drifts", "leak", (experiments, "leak_test", drifting_wct), "all"),
        ("train clean", "train", None, "none"),
        ("train NaN loss", "train", (training, "train_step", nan_loss), "all"),
        ("train lossy round trip", "train", (flows.FlowNet, "inverse", lossy_inverse), "all"),
    ]
    problems = check_manifest(harness, tracing)
    for name, key, patch, expect in cases:
        with patched(*patch) if patch else contextlib.nullcontext():
            result = harness.measure(small[key], 0, SECONDS, False, run.OUT_DIR)
        ok = {
            "none": result.failed == 0 and result.correct,
            "some": 0 < result.failed and not result.correct,
            "all": result.failed == result.attempted and not result.correct,
        }[expect]
        print(f"{'PASS' if ok else 'FAIL'} {name}: {result.failed}/{result.attempted} ops failed")
        if not ok:
            problems.append(name)
    traced = harness.measure(small["train"], 0, SECONDS, True, run.OUT_DIR)
    if not traced.metrics["autodiff.tape.nodes"][0] > 0:
        problems.append("traced run recorded no tape")
    print(f"{'PASS' if not problems else 'FAIL'} selftest")
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
