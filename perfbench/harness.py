"""Closed-loop measurement of one workload in this process.

``measure`` sets the workload up several times and reports the median
set-up time, then runs ops until their summed time reaches the run
length. Without tracing every op runs untraced and the end-to-end
metrics are reported. With tracing, ops alternate untraced and traced
(starting untraced), set-ups are traced, and the per-layer metrics are
derived from the spans.

Times are reported in seconds at a fixed nominal machine speed. The
speed of a shared machine swings by tens of percent from second to
second and drifts over minutes, and most of that slows the program and
a tiny fixed reference kernel (``probe_kernel``) alike. So while an
untraced run sets up and runs its ops, an interval timer runs the kernel
every ``PROBE_PERIOD_S`` seconds. Each set-up and each op is divided by
the kernel's median time in a window around it and multiplied by
``PROBE_NOMINAL_S``. The probe's own time is taken out of the set-up or
op it interrupted. Raw wall seconds are printed alongside.
"""

from __future__ import annotations

import bisect
import os
import resource
import signal
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import tracing

# Set-up runs at least MIN_SETUPS times, and more while the set-ups so far
# took under SETUP_BUDGET_S in total, up to MAX_SETUPS.
MIN_SETUPS = 3
MAX_SETUPS = 100
SETUP_BUDGET_S = 1.0

# The probe runs every PROBE_PERIOD_S seconds; an op is normalized by the
# probe samples from PROBE_WINDOW_S before it starts to as long after it
# ends. PROBE_NOMINAL_S is the probe's median time on the 2-core x86_64 VM
# where the benchmark was defined, so normalized seconds read close to
# wall seconds there. It is part of the benchmark's definition: never
# change it between a parent and a child measurement.
PROBE_PERIOD_S = 0.1
PROBE_WINDOW_S = 0.5
PROBE_NOMINAL_S = 1.25e-3

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_s.p50", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_MAX_REASONS = 5

_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.random((1, 32, 18, 18))
_PROBE_W = _PROBE_RNG.random((32, 32))


def probe_kernel() -> float:
    """Seconds for a fixed mix of interpreted Python and numpy work.

    The two halves mirror what flowstyle spends its time on: a Python
    loop (op dispatch) and a per-tap 3x3 channel ``einsum`` (conv2d).
    """
    t0 = perf_counter()
    total = 0
    for k in range(4000):
        total += k
    out = np.zeros((1, 32, 16, 16))
    for u in range(3):
        for v in range(3):
            out += np.einsum("bihw,oi->bohw", _PROBE_X[:, :, u : u + 16, v : v + 16], _PROBE_W)
    return perf_counter() - t0


class SpeedProbe:
    """While active, times ``probe_kernel`` from a SIGALRM interval timer.

    ``samples`` holds (start, seconds) pairs; ``spent`` is the total time
    spent in the handler, so callers can take it out of what they timed.
    A disabled probe never fires and spends nothing.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.samples.append((t0, probe_kernel()))
        self.spent += perf_counter() - t0

    def __enter__(self):
        if self.enabled:
            self._on_alarm(signal.SIGALRM, None)
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def nominal(self, spans: list[tuple[float, float]], seconds: list[float]) -> list[float]:
        """Each timing in seconds at the nominal speed: divided by the
        median probe time around its span, times ``PROBE_NOMINAL_S``."""
        starts = [t for t, _ in self.samples]
        out = []
        for (t0, t1), dt in zip(spans, seconds):
            lo = bisect.bisect_left(starts, t0 - PROBE_WINDOW_S)
            hi = bisect.bisect_right(starts, t1 + PROBE_WINDOW_S)
            window = self.samples[lo:hi] or self.samples
            out.append(dt * PROBE_NOMINAL_S / statistics.median(d for _, d in window))
        return out


class Stopwatch:
    """Wall time of one block minus the probe time spent inside it."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self._t0 = self._spent = 0.0

    def start(self) -> None:
        self._spent = self.probe.spent
        self._t0 = perf_counter()

    def stop(self) -> tuple[tuple[float, float], float]:
        """Return the block's (start, end) span and its net seconds."""
        t1 = perf_counter()
        return (self._t0, t1), t1 - self._t0 - (self.probe.spent - self._spent)


class OpClock:
    """Times ops and counts the ones that failed their output check."""

    def __init__(self, seconds: float, probe: SpeedProbe, tracer: tracing.Tracer | None = None):
        self.seconds = seconds
        self.tracer = tracer
        self.op_s: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.traced: list[bool] = []
        self.failed = 0
        self.reasons: list[str] = []
        self._elapsed = 0.0
        self._watch = Stopwatch(probe)
        self._tracing = False

    @property
    def done(self) -> bool:
        """True once the run length is used up (and, when tracing, at
        least one op of each kind has run)."""
        if self._elapsed < self.seconds:
            return False
        return self.tracer is None or (any(self.traced) and not all(self.traced))

    def begin(self) -> None:
        self._tracing = self.tracer is not None and len(self.op_s) % 2 == 1
        if self._tracing:
            self.tracer.begin_root(tracing.OP_ROOT)
        self._watch.start()

    def end(self) -> None:
        span, dt = self._watch.stop()
        if self._tracing:
            self.tracer.end_root()
        self._elapsed += dt
        self.op_s.append(dt)
        self.spans.append(span)
        self.traced.append(self._tracing)

    def fail(self, reason: str) -> None:
        """Count the op that just ended as failed."""
        self.failed = min(self.failed + 1, len(self.op_s))
        if len(self.reasons) < _MAX_REASONS:
            self.reasons.append(reason)

    def fail_all(self, reason: str) -> None:
        """Count every op of the run as failed (a run-level check broke)."""
        self.failed = len(self.op_s)
        self.reasons.append(reason)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(workload, seed: int, seconds: float, traced: bool, outdir) -> Result:
    """Set up and run ``workload``; spans of a traced run go to ``outdir``."""
    tracer = tracing.Tracer() if traced else None
    probe = SpeedProbe(enabled=not traced)
    watch = Stopwatch(probe)
    setup_spans, setup_s = [], []
    with tempfile.TemporaryDirectory(dir=outdir, prefix="work-") as workdir, probe:
        while len(setup_s) < MIN_SETUPS or (
            sum(setup_s) < SETUP_BUDGET_S and len(setup_s) < MAX_SETUPS
        ):
            if tracer is not None:
                tracer.begin_root(tracing.SETUP_ROOT)
            watch.start()
            try:
                state = workload.setup(seed, workdir)
            finally:
                span, dt = watch.stop()
                setup_spans.append(span)
                setup_s.append(dt)
                if tracer is not None:
                    tracer.end_root()
        clock = OpClock(seconds, probe, tracer)
        try:
            workload.run(state, clock)
        except Exception:  # the run stops; the op that raised counts as failed
            traceback.print_exc()
            clock.fail(f"op {len(clock.op_s) - 1} raised; see the traceback on stderr")
    if not clock.op_s:
        raise RuntimeError(f"{workload.name}: no op ran")
    print(
        f"{workload.name}  wall seconds: setup median {statistics.median(setup_s):.6g}, "
        f"op median {statistics.median(clock.op_s):.6g}, "
        f"ops per second {len(clock.op_s) / sum(clock.op_s):.6g}"
    )
    if tracer is None:
        op_s = probe.nominal(clock.spans, clock.op_s)
        print(
            f"{workload.name}  probe: median {statistics.median(d for _, d in probe.samples):.6g} s "
            f"over {len(probe.samples)} samples (nominal {PROBE_NOMINAL_S:g} s)"
        )
        metrics = {
            "setup_s": statistics.median(probe.nominal(setup_spans, setup_s)),
            "ops_per_s": len(op_s) / sum(op_s),
            "op_s.p50": statistics.median(op_s),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        tracer.write(os.path.join(outdir, f"spans-{workload.name}-seed{seed}.json"))
        metrics = tracing.layer_metrics(
            tracer.spans,
            [t for t, on in zip(clock.op_s, clock.traced) if on],
            [t for t, on in zip(clock.op_s, clock.traced) if not on],
        )
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    for reason in clock.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    return Result(
        correct=clock.failed == 0,
        attempted=len(clock.op_s),
        failed=clock.failed,
        metrics={name: (value, units[name]) for name, value in metrics.items()},
    )
