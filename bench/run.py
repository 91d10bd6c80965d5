"""kscert benchmark: one client driving `kscert.cli.main(argv)` in-process
as a closed loop (the next command starts when the previous one returns).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see plan.py for why each was chosen): catalog-mix, kp40-derive.
A run sets up its inputs from the seed, then repeats the workload's cycle of
commands, checking every command's output, for as long as one more cycle
still ends within S seconds (at least one cycle).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced cycles and reports the per-layer metrics (see spans.py) per traced
cycle, the tracing overhead, and layer microbenchmarks.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

End-to-end metrics (--trace 0), as times at reference speed (below):
  setup_s         import time plus the median of SETUP_REPEATS set-ups
                  (catalog load, generating and writing the Peres-24, KP-40
                  and near-miss inputs)
  wall_s          mean over cycles of the cycle's summed command time
  verify_ms.p50   median latency of the verify commands
  derive_ms.p50   median latency of the commands that run the derivation
                  (derive, export, bound)
  peak_rss_mb     peak resident memory of the process
The share of failed commands is the JSON line's failed / attempted.

Reference speed.  The shared 2-vCPU host this benchmark was built on
switches between two speeds about 2x apart, often several times a second,
and a run's raw times follow whichever speed held.  So the run times a
fixed pure-Python computation of about a millisecond (`reference_pass`:
exact rational arithmetic, tuples, dicts and sorting, as kscert does; it
calls no kscert code) before and after every command and set-up, and every
TICK_S during one (on SIGALRM; the time the reference takes there is not
counted).  Each measured time t is scaled to t * REF_PASS_S * mean(1 / r)
over the reference timings r around and during it: the time the work would
take on a host where one reference pass takes REF_PASS_S.  A change to
kscert moves these times as it moves the raw ones; a change of host speed
cancels out.  The run also prints the raw times, op_ms.p50, op_ms.p90 with
how many samples lie beyond it, ops_per_s and the reference timings.

Set-up is repeated so that its median is steady.  The recursion limit is
left at the interpreter default, as CLI users have it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
REF_PASS_S = 0.001  # nominal time of one reference pass; fixes the scale of every end-to-end time
TICK_S = 0.05  # how often a long call is interrupted to time the reference

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verify_ms.p50", "ms"),
    ("derive_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
]


def reference_pass():
    """A fixed computation of the kind kscert does: a 4 x 4 product of
    matrices over Q(i), then a dict of sorted tuples."""
    a = [[(Fraction(i + 1, j + 2), Fraction(j - i, 3)) for j in range(4)] for i in range(4)]
    product = []
    for i in range(4):
        row = []
        for j in range(4):
            re = im = Fraction(0)
            for k in range(4):
                x, y = a[i][k], a[k][j]
                re += x[0] * y[0] - x[1] * y[1]
                im += x[0] * y[1] + x[1] * y[0]
            row.append((re, im))
        product.append(row)
    table = {(i, i % 7): tuple(sorted((i % 13, i % 5, i % 3))) for i in range(60)}
    return product, table


def reference_s() -> float:
    """Host speed now: the time of one reference pass."""
    start = perf_counter()
    reference_pass()
    return perf_counter() - start


class Speed:
    """Times calls and scales them to reference speed by reference timings
    taken before, after and every TICK_S during each call."""

    def __init__(self):
        self.refs = [reference_s()]
        self._during = []
        self._paused = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = perf_counter()
        self._during.append(reference_s())
        self._paused += perf_counter() - start

    def timed(self, fn) -> tuple:
        """(fn's result, its measured seconds, its seconds at reference
        speed); the reference timings taken during the call do not count."""
        self._during, self._paused = [], 0.0
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = perf_counter() - start - self._paused
        refs = [self.refs[-1], *self._during, reference_s()]
        self.refs += refs[1:]
        # each stretch of the call ran at the speed sampled nearest to it
        return result, seconds, seconds * REF_PASS_S * statistics.fmean(1 / r for r in refs)


def _import_kscert():
    """Import kscert from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "kscert" / "__init__.py").is_file():
        sys.exit(f"error: no kscert sources under {src}")
    sys.path.insert(0, str(src))
    import kscert.cli

    if Path(kscert.cli.__file__).resolve().parent != (src / "kscert").resolve():
        sys.exit(f"error: imported kscert from {kscert.cli.__file__}, not {src}")


def run_command(cmd):
    """Run one command through kscert.cli.main; its error, or None if its
    output passes its check."""
    import kscert.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = kscert.cli.main(list(cmd.argv))
    except (Exception, SystemExit) as ex:  # a crash is a failed command, not a crashed bench
        return f"{type(ex).__name__}: {ex}"
    return cmd.check(rc, out.getvalue(), err.getvalue())


class Loop:
    """Results of the cycles run so far."""

    def __init__(self, speed):
        self.speed = speed
        self.samples = []  # (kind, seconds at reference speed) per command
        self.raw_s = []  # measured seconds per command
        self.raw_cycle_s = []  # measured seconds per untraced cycle
        self.cycle_s = {False: [], True: []}  # per cycle at reference speed, keyed by traced
        self.errors = []

    def cycle(self, workload, traced=False):
        total = 0.0
        for cmd in workload:
            error, seconds, scaled = self.speed.timed(lambda: run_command(cmd))
            total += scaled
            self.raw_s.append(seconds)
            if error is None:
                self.samples.append((cmd.kind, scaled))
            else:
                self.errors.append(f"{' '.join(cmd.argv)}: {error}")
        self.cycle_s[traced].append(total)
        if not traced:
            self.raw_cycle_s.append(sum(self.raw_s[-len(workload):]))

    def more(self, min_cycles, start, seconds) -> bool:
        """Whether to run another cycle: until `min_cycles` have run, and
        then while one more cycle of average length still ends within
        `seconds` of `start`."""
        done = len(self.cycle_s[False]) + len(self.cycle_s[True])
        if done < min_cycles:
            return True
        elapsed = perf_counter() - start
        return elapsed + elapsed / done <= seconds

    @property
    def attempted(self):
        return len(self.samples) + len(self.errors)


def end_to_end(loop, setup_s) -> tuple:
    # a kind has no samples only when all its commands failed; correct is false then
    lat = [s for _, s in loop.samples] or [0.0]
    by_kind = {kind: [s for k, s in loop.samples if k == kind] or [0.0] for kind in ("verify", "derive")}
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(loop.cycle_s[False]),
        "verify_ms.p50": 1000 * statistics.median(by_kind["verify"]),
        "derive_ms.p50": 1000 * statistics.median(by_kind["derive"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    refs = loop.speed.refs
    notes = [
        f"op_ms.p50 = {1000 * statistics.median(lat)} ms; op_ms.p90 = {1000 * p90} ms over "
        f"{len(lat)} commands, {sum(1 for s in lat if s > p90)} beyond it",
        f"ops_per_s = {len(lat) / sum(loop.raw_s)} (raw)",
        f"raw command seconds: total {sum(loop.raw_s)}, median {statistics.median(loop.raw_s)}",
        f"reference pass ms: median {1000 * statistics.median(refs)}, "
        f"min {1000 * min(refs)}, max {1000 * max(refs)} over {len(refs)}",
        "cycle walls at reference speed: " + " ".join(f"{s:.3f}" for s in loop.cycle_s[False]),
        "raw cycle walls: " + " ".join(f"{s:.3f}" for s in loop.raw_cycle_s),
    ]
    return metrics, notes


def run(args) -> dict:
    speed = Speed()
    import_s = speed.timed(_import_kscert)[2]
    import gen
    import plan

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            rng = random.Random(args.seed)
            inputs, _, seconds = speed.timed(lambda: gen.make_inputs(rng, str(workdir)))
            setups.append(seconds)
        setup_s = import_s + statistics.median(setups)
        workload = plan.build(args.workload, inputs, rng)

        loop = Loop(speed)
        start = perf_counter()
        if not args.trace:
            while loop.more(1, start, args.seconds):
                loop.cycle(workload)
            metrics, notes = end_to_end(loop, setup_s)
            units = dict(END_TO_END)
        else:
            import spans

            tracer = spans.Tracer()
            while loop.more(2, start, args.seconds):  # the second cycle is traced
                done = len(loop.cycle_s[False]) + len(loop.cycle_s[True])
                traced = done % 4 in (1, 2)  # untraced, traced, traced, untraced, ...
                if traced:
                    tracer.install()
                try:
                    loop.cycle(workload, traced)
                finally:
                    tracer.uninstall()
            metrics, notes = spans.per_layer(tracer, loop.cycle_s, inputs)
            units = dict(spans.PER_LAYER)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  trace: {args.trace}")
    print(f"python: {platform.python_version()}  nproc: {os.cpu_count()}  platform: {platform.platform()}")
    print(f"cycle: {len(workload)} commands; cycles: "
          f"{len(loop.cycle_s[False])} untraced, {len(loop.cycle_s[True])} traced")
    print(f"fail_frac: {len(loop.errors)}/{loop.attempted} = {len(loop.errors) / loop.attempted}")
    for error in loop.errors[:20]:
        print(f"FAILED {error}")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    return {
        "correct": not loop.errors,
        "attempted": loop.attempted,
        "failed": len(loop.errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    import plan

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
