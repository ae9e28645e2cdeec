"""The minrect benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload rigs --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` of
the checkout this file sits in; BLAS is pinned to one thread.  Each run is
a closed loop in one process (``cli`` adds one child process at a time).

--trace 0 prints the end-to-end metrics, with operation times expressed at
the fixed reference pace of ``pace.py``; --trace 1 runs the same workload
with spans around every call into the program, plus a shorter traced pass
over the other workloads, and prints the per-layer metrics.  Spans go to
``.perfbench/trace-<workload>-<seed>.tsv``.  The last line of standard output
is the result; problems found by the checks go to standard error.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported, by pace

import pace  # noqa: E402
from spans import Tracer, direct, median, p90  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 5  # set-ups per run whose median is setup_s: this process and 4 children
TRACE_OWN_SHARE = 0.6  # of --seconds, for the traced run's own workload
TRACE_OTHER_SHARE = 0.1  # of --seconds, for each of the other workloads


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("rigs", "video", "oracle", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up and warm up, print the set-up time, exit")
    return p.parse_args(argv)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "minrect", "__init__.py")):
        print(f"minrect sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import minrect

    if not os.path.abspath(minrect.__file__).startswith(SRC + os.sep):
        print(f"imported minrect from {minrect.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


class Loop:
    """Whole rounds of a workload's operations until the time is used.

    Each operation is timed on its own and its output is checked right
    after it, outside the timing, so every operation starts from the same
    state.  The first time an operation is seen its output is verified;
    later rounds must reproduce its fingerprint exactly.  ``wall`` is the
    summed time of the operations.  Every ``pace.EVERY_S`` of it, the
    reference kernel is timed too, outside the operations' time.
    """

    def __init__(self, wl):
        from minrect.errors import MinrectError
        from workloads import error_fp

        self.error = MinrectError
        self.error_fp = error_fp
        self.wl = wl
        self.times = []
        self.times_by_mode = {True: [], False: []}
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.seen = {}
        self.pace = []  # reference-kernel times
        self.pace_marks = []  # per operation: index of the next reference sample
        self._next_pace = 0.0

    def round(self, tracer=None):
        wl = self.wl
        call = direct if tracer is None else tracer.call
        for item in wl.items:
            wl.prepare(item)
            t0 = time.perf_counter()
            try:
                out = call("op", wl.op, item, call)
            except self.error as exc:
                out = exc
            dt = time.perf_counter() - t0
            self.wall += dt
            self.times.append(dt)
            self.pace_marks.append(len(self.pace))
            self.times_by_mode[tracer is not None].append(dt)
            if tracer is not None:
                problem = wl.extra_traced(item, out, tracer)
                if problem:
                    self.problems.append(problem)
            self.check(item, out)
            if self.wall >= self._next_pace:
                self.pace.append(pace.reference())
                self._next_pace = self.wall + pace.EVERY_S

    def check(self, item, out):
        wl = self.wl
        raised = isinstance(out, self.error)
        fp = self.error_fp(out) if raised else wl.fingerprint(item, out)
        if item.index not in self.seen:
            failed, problem = wl.raised(item, out) if raised else wl.verify(item, out)
            self.seen[item.index] = (fp, failed)
            if problem:
                self.problems.append(f"{wl.name} #{item.index}: {problem}")
        elif self.seen[item.index][0] != fp:
            self.problems.append(f"{wl.name} #{item.index}: output differs from round 1")
        self.failed += self.seen[item.index][1]
        self.attempted += 1

    def run(self, seconds, tracer=None, alternate=False):
        """Rounds until ``seconds`` of operations; ``alternate`` traces every other round."""
        rounds = 0
        while rounds < (2 if alternate else 1) or self.wall < seconds:
            traced = tracer is not None and (not alternate or rounds % 2 == 1)
            self.round(tracer if traced else None)
            rounds += 1


def setup_samples(args, first):
    """This run's own set-up time and that of fresh processes doing the same."""
    samples = [first]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"set-up child failed: {res.stderr.strip()}")
        samples.append(float(res.stdout.strip().splitlines()[-1]))
    return samples


def workdir(args, tag):
    d = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}-{tag}")
    os.makedirs(d, exist_ok=True)
    return d


def end_to_end(args, workloads):
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir(args, "main"))
    wl.warmup()
    setup_first = time.perf_counter() - T_START - wl.own_s
    loop = Loop(wl)
    loop.run(args.seconds)
    rss = wl.peak_rss_mb()
    setups = setup_samples(args, setup_first)
    completed = loop.attempted - loop.failed
    times = pace.paced(loop.times, loop.pace_marks, loop.pace)
    metrics = {
        "setup_s": (median(setups), "s"),
        "ops_per_s": (completed / sum(times), "op/s"),
        "op_ms_p50": (median(times) * 1e3, "ms"),
        "op_ms_p90": (p90(times) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"{args.workload}: as measured, before pacing (reference median "
          f"{median(loop.pace) * 1e3:.3f} ms over {len(loop.pace)} samples): "
          f"ops_per_s {completed / loop.wall:.6g} "
          f"op_ms_p50 {median(loop.times) * 1e3:.6g} op_ms_p90 {p90(loop.times) * 1e3:.6g}",
          file=sys.stderr)
    print(f"{args.workload}: {loop.attempted} ops in {loop.wall:.2f} s timed, "
          f"{len(loop.times)} latencies, set-ups {['%.3f' % s for s in setups]}, "
          f"{wl.own_s:.3f} s of the benchmark's own set-up left out, "
          f"{getattr(wl, 'skipped', 0)} singular rig draws skipped", file=sys.stderr)
    return loop, metrics


def traced(args, workloads):
    order = [args.workload] + [w for w in workloads.WORKLOADS if w != args.workload]
    metrics, tracers, own = {}, [], None
    for name in order:
        wl = workloads.WORKLOADS[name](args.seed, workdir(args, name))
        wl.warmup()
        tr = Tracer(name)
        loop = Loop(wl)
        if name == args.workload:
            loop.run(args.seconds * TRACE_OWN_SHARE, tr, alternate=True)
            own = loop
            plain = median(loop.times_by_mode[False])
            with_spans = median(loop.times_by_mode[True])
            metrics["trace.overhead_pct"] = (100.0 * (with_spans - plain) / plain, "%")
        else:
            loop.run(args.seconds * TRACE_OTHER_SHARE, tr)
            own.problems.extend(loop.problems)
        metrics.update(wl.layer_metrics(tr))
        tracers.append(tr)
    metrics["trace.spans"] = (sum(len(t.spans) for t in tracers), "count")
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("phase\tid\tparent\tname\tstart_s\tend_s\n")
        for tr in tracers:
            tr.write(fh)
    return own, metrics


def main(argv=None):
    args = parse_args(argv)
    workloads = import_program()
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.setup_only:
            wl = workloads.WORKLOADS[args.workload](args.seed, workdir(args, "setup"))
            wl.warmup()
            print(f"{time.perf_counter() - T_START - wl.own_s:.6f}")
            return 0
        loop, metrics = (traced if args.trace else end_to_end)(args, workloads)
    finally:
        for d in os.listdir(OUT):
            if d.startswith(f"work-{args.workload}-{args.seed}-{os.getpid()}-"):
                shutil.rmtree(os.path.join(OUT, d), ignore_errors=True)
    for problem in loop.problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
