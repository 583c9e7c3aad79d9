"""One benchmark process: set up a workload, run its timed operations and
report what they returned.

run.py starts a fresh interpreter on this file for every timed pass and
every set-up probe, so the package's lru caches start cold, as they do
for a command-line user.  The job arrives as JSON on stdin and the report
leaves as one JSON line on stdout.  Outputs are checked by the parent.

Times are CPU seconds of this process and of any child it waits for, not
wall time: the benchmark runs on a few cores of a shared host, where wall
time of single-threaded work mostly measures the neighbours.  The host's
own speed still drifts, by up to a third within minutes, so a Speedometer
times a short fixed kernel after set-up, before every operation and, on a
CPU-time timer, during it.  run.py rescales each time by those samples.
"""

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def cpu():
    """CPU seconds used so far by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def kernel():
    """Fixed work in the standard library alone, about 12 ms: a bisection
    for the root of a cubic through a nested function, like `search`, and
    a growing Fraction sum, like the exact arithmetic of the other
    workloads.  Of the kernels tried (a bare int loop, object and dict
    churn, random walks over a large list), these two tracked the drift
    in both kinds of operation best.  It must never change, or old and new
    times stop being comparable."""

    def cubic(v, p, q):
        return v * v * v - p * v - q

    acc = 0
    for a in range(1, 60):
        for b in range(a + 1, 90):
            p, q = a * a + b * b, 2 * a * b
            lo, hi = isqrt(2 * p // 3), isqrt(2 * p) + 1
            while lo < hi:
                mid = (lo + hi) // 2
                if cubic(mid, p, q) < 0:
                    lo = mid + 1
                else:
                    hi = mid
            acc += lo
    x = Fraction(0)
    for i in range(1, 900):
        x += Fraction(1, i * i)
    return acc, x


class Speedometer:
    """Samples the host's speed as wall times of kernel(), each tagged with
    what was running: "setup" or an operation's index.

    While running, a SIGPROF timer interrupts the operation every PERIOD
    seconds of CPU time and takes a sample in the signal handler, so the
    samples cover the operation's whole span.  The kernel is timed by the
    wall clock because the CPU clock here moves in scheduler ticks; it is
    short enough to be rarely preempted.
    """

    PERIOD = 0.2
    BEFORE = 5  # samples taken before each operation and after set-up

    def __init__(self):
        self.samples = []
        self.tag = None
        self.in_op = 0.0  # seconds spent in samples since start()

    def sample(self, *_signal):
        # A collection started by the kernel's allocations would scan the
        # operation's heap and be charged to the kernel.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        took = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append([self.tag, took])
        return took

    def before(self, tag):
        self.tag = tag
        for _ in range(self.BEFORE):
            self.sample()

    def _sample_in_op(self, *_signal):
        self.in_op += self.sample()

    def start(self):
        self.in_op = 0.0
        signal.signal(signal.SIGPROF, self._sample_in_op)
        signal.setitimer(signal.ITIMER_PROF, self.PERIOD, self.PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        return self.in_op


def setup(workload, job):
    """Import the package and build the inputs; return op -> (output, after).

    `after` is None or an untimed follow-up whose dict joins the output.
    """
    if workload == "certify":
        from zerodiag import cli

        argv = list(job["argv"])

        def run(_op):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return {"exit": code, "stdout": out.getvalue()}, None

        return run
    if workload == "sections":
        from zerodiag import mwlat
        from zerodiag.curve import named_sections, param_to_point, point_to_param

        named = named_sections()
        P, Q, T1, T2 = (param_to_point(named[k]) for k in ("P", "Q", "T1", "T2"))
        torsion = {"O": P.model.infinity(), "T1": T1, "T2": T2, "T1+T2": T1 + T2}
        partners = {"P": P, "Q": Q}

        def run(op):
            m, n, t, partner = op
            s = m * P + n * Q + torsion[t]
            out = {"height": str(mwlat.height_pairing(s)),
                   "mixed": str(mwlat.height_pairing(s, partners[partner]))}
            try:
                par = point_to_param(s)
            except ValueError as e:
                out["error"] = "ValueError: %s" % e
                return out, None
            out["degree"] = par.degree()
            return out, lambda: {"verified": par.verify()}

        return run
    if workload == "search":
        from zerodiag import surface

        def run(limit):
            found = surface.search(limit, workers=1)
            return {"triples": [[list(abc), list(ev)] for abc, ev in found]}, None

        return run
    raise ValueError("unknown workload %r" % workload)


def main():
    job = json.load(sys.stdin)
    tracer = None
    if job.get("spans_path"):
        import spans

        tracer = spans.install()
    run = setup(job["workload"], job)
    setup_cpu = cpu()  # from interpreter start, so start-up counts too
    meter = Speedometer()
    meter.before("setup")

    budget, group = job.get("seconds"), job["group"]
    results = []
    busy = 0.0
    for i, op in enumerate(job["ops"]):
        # Stop only between groups, and only when one more group, at the
        # average pace so far, would overrun the budget.
        if budget is not None and i and i % group == 0:
            if busy + busy * group / i > budget:
                break
        meter.before(i)
        if tracer:
            # No samples inside a traced operation: they would land in the
            # self time of whichever span is open.
            tracer.op = i
            tracer.enabled = True
        else:
            meter.start()
        c0, w0 = cpu(), time.perf_counter()
        try:
            out, after = run(op)
        except Exception as e:  # a failed operation is reported, never fatal
            out, after = {"error": "%s: %s" % (type(e).__name__, e)}, None
        seconds, wall = cpu() - c0, time.perf_counter() - w0
        if tracer:
            tracer.enabled = False
        else:
            sampled = meter.stop()
            seconds -= sampled
            wall -= sampled
        if after is not None:
            try:
                out.update(after())
            except Exception as e:
                out["error"] = "%s: %s" % (type(e).__name__, e)
        busy += seconds
        results.append({"op": op, "cpu": seconds, "wall": wall, "out": out})

    report = {
        "setup_cpu": setup_cpu,
        "samples": meter.samples,
        "results": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.write(job["spans_path"])
        report["layers"] = tracer.layer_metrics()
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
