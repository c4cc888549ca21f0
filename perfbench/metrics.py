"""Metric derivations for the repository benchmark.

perfbench_driver (C++) measures and checks; it writes raw samples, exact
counters and spans. Everything reported is derived here, from that raw
report, so the arithmetic is tested in one place (test_metrics.py):

* percentiles come with their sample count and the number of samples
  beyond them;
* ratios come with their base;
* a span's self time is its duration minus the part of it its child spans
  cover;
* end-to-end host times are calibrated: each measured unit is divided by
  the calibration kernel's time measured around it (see CALIBRATION_MS).
"""

import bisect
import statistics

# The calibration kernel (perfbench/driver.cpp) defines the reference
# speed: a host that runs it in exactly this long. A calibrated time is
# the measured time scaled by CALIBRATION_MS / (kernel time measured
# next to it), so it moves with the simulator's work, not with how busy
# the shared host was at that moment.
CALIBRATION_MS = 1.0


def quantile(values, q):
    """Linear-interpolated q-quantile of `values` (0 <= q <= 1).

    Returns (value, n): the quantile and the number of samples it is
    taken over.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q outside [0, 1]")
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), n


def tail(values, q):
    """(value, n, beyond): the q-quantile, the sample count, and how many
    samples lie strictly above it. A tail percentile is only reported
    when `beyond` is at least 10."""
    value, n = quantile(values, q)
    return value, n, sum(1 for x in values if x > value)


def ratio(num, base):
    """(num / base, base); the value is 0.0 when the base is 0 (no work
    of that kind happened, e.g. no arrivals on a saturated workload)."""
    return (num / base if base else 0.0), base


class Spans:
    """The driver's span list: (name, start_ns, end_ns, parent, items)."""

    def __init__(self, raw):
        self.spans = [tuple(s) for s in raw]
        self.children = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)
        calib = sorted((s[1], s[2]) for s in self.spans if s[0] == "calib")
        self._calib_starts = [c[0] for c in calib]
        self._calib = calib

    def duration_ns(self, i):
        s = self.spans[i]
        return s[2] - s[1]

    def items(self, i):
        return self.spans[i][4]

    def root(self, i):
        while self.spans[i][3] >= 0:
            i = self.spans[i][3]
        return i

    def named(self, name, roots=None):
        """Indices of spans called `name`, optionally only those whose
        root span's name is in `roots`."""
        return [
            i
            for i, s in enumerate(self.spans)
            if s[0] == name
            and (roots is None or self.spans[self.root(i)][0] in roots)
        ]

    def self_ns(self, i):
        """Duration minus the union of the child spans' intervals, each
        clipped to this span."""
        start, end = self.spans[i][1], self.spans[i][2]
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(self.spans[c][1], start), min(self.spans[c][2], end))
            for c in self.children[i]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return (end - start) - covered

    def calib_ns_around(self, i):
        """Mean duration of the calibration spans just before and just
        after span i (whichever exist)."""
        start, end = self.spans[i][1], self.spans[i][2]
        near = []
        k = bisect.bisect_left(self._calib_starts, start)
        if k > 0 and self._calib[k - 1][1] <= start:
            near.append(self._calib[k - 1])
        k = bisect.bisect_left(self._calib_starts, end)
        if k < len(self._calib):
            near.append(self._calib[k])
        if not near:
            raise ValueError("span %d has no calibration around it" % i)
        return sum(hi - lo for lo, hi in near) / len(near)

    def calib_ns_within(self, i):
        """Median duration of the calibration spans inside span i."""
        start, end = self.spans[i][1], self.spans[i][2]
        inside = [hi - lo for lo, hi in self._calib if lo >= start and hi <= end]
        if not inside:
            raise ValueError("span %d has no calibration inside it" % i)
        return statistics.median(inside)

    def calibrated_ms(self, indices):
        """Calibrated durations in ms (reference speed) of the spans."""
        return [
            self.duration_ns(i) / self.calib_ns_around(i) * CALIBRATION_MS
            for i in indices
        ]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _work_ns(spans, root):
    """A repetition's or pass's own work: its child spans' durations,
    without the calibration and the set-up samples taken in between."""
    return sum(spans.duration_ns(c) for c in spans.children[root]
               if spans.spans[c][0] != "calib")


def end_to_end(raw, bounds_units):
    """The end-to-end metrics of an untraced run: {name: (value, unit)}.

    `bounds_units` maps each end-to-end metric name to its unit (from
    BENCHMARK.json), so the output carries exactly those metrics.
    """
    spans = Spans(raw["spans"])
    values = raw["values"]
    samples = raw["samples"]
    sweep = raw["info"]["workload"] == "sweep_resume"

    if sweep:
        slices = spans.calibrated_ms(spans.named("point", {"cold_pass"}))
        reps, cpu_samples = spans.named("cold_pass"), samples["pass_cpu_s"]
    else:
        slices = spans.calibrated_ms(spans.named("slice", {"rep"}))
        reps, cpu_samples = spans.named("rep"), samples["rep_cpu_s"]
    cpu = [c * 1e6 / spans.calib_ns_within(r) * CALIBRATION_MS
           for c, r in zip(cpu_samples, reps)]
    p90, n, beyond = tail(slices, 0.90)
    if beyond < 10:
        raise ValueError(
            "slice_ms_p90 over %d slices has only %d beyond it" % (n, beyond)
        )
    setup = spans.calibrated_ms(spans.named("setup"))
    out = {
        "slice_ms_p50": quantile(slices, 0.5)[0],
        "slice_ms_p90": p90,
        "setup_s": quantile(setup, 0.5)[0] / 1e3,
        "peak_rss_mb": values["peak_rss_kb"] / 1024.0,
        "goodput_mbps": values["goodput_mbps"],
        "cpu_s": quantile(cpu, 0.5)[0],
    }
    return {k: (out[k], unit) for k, unit in bounds_units.items()}


def record_extras(raw):
    """Figures printed in the human record beside the end-to-end metrics:
    sample counts, the sweep's job rates, MAC delay, failed ratio."""
    spans = Spans(raw["spans"])
    values = raw["values"]
    sweep = raw["info"]["workload"] == "sweep_resume"
    out = {
        "failed_ratio": (ratio(raw["failed"], raw["attempted"])[0], "ratio"),
        "operations_attempted": (raw["attempted"], "count"),
        "delay_p99_ms": (values.get("delay_p99_ms", 0.0), "sim_ms"),
        "setup_samples": (len(spans.named("setup")), "count"),
    }
    unit, root = ("point", "cold_pass") if sweep else ("slice", "rep")
    out["repetitions"] = (len(spans.named(root)), "count")
    out["slices"] = (len(spans.named(unit, {root})), "count")
    if sweep:
        jobs = values["sweep.jobs_per_pass"]
        for name, root in (("jobs_per_s", "cold_pass"),
                           ("replay_jobs_per_s", "resume_pass")):
            wall = _median([_work_ns(spans, i) for i in spans.named(root)])
            out[name] = (jobs / (wall / 1e9), "jobs/s")
    return out


PROFILE_CATEGORIES = ("sim", "medium", "mark", "station", "cohort", "traffic", "other")


def per_layer(raw, units):
    """The per-layer metrics of a traced run: {name: (value, unit)} for
    every name in `units` (from BENCHMARK.json)."""
    spans = Spans(raw["spans"])
    v = raw["values"]
    s = raw["samples"]
    sweep = raw["info"]["workload"] == "sweep_resume"

    def get(name):
        return float(v.get(name, 0.0))

    def med_ms(name):
        return _median([spans.duration_ns(i) for i in spans.named(name)]) / 1e6

    def med_self_ms(name):
        return _median([spans.self_ns(i) for i in spans.named(name)]) / 1e6

    dispatch_ns = sum(get("profile.%s.wall_ns" % c) for c in PROFILE_CATEGORIES)
    run_for_ns = sum(
        spans.duration_ns(i)
        for name in ("slice", "warmup_slice")
        for i in spans.named(name, {"rep_traced"})
    )
    traced = spans.calibrated_ms(spans.named("slice", {"rep_traced"}))
    untraced = spans.calibrated_ms(spans.named("slice", {"rep"}))
    replay = spans.named("replay", {"entries"})

    if sweep:
        jobs = get("sweep.jobs_per_pass")
        cold = [_work_ns(spans, i) for i in spans.named("cold_pass")]
        bare = [_work_ns(spans, i) for i in spans.named("bare_pass")]
        resume = [_work_ns(spans, i) for i in spans.named("resume_pass")]
        jobs_per_s = jobs / (_median(cold) / 1e9)
        replay_per_s = jobs / (_median(resume) / 1e9)
        persist_share = ratio(_median(cold) - _median(bare), _median(cold))[0]
        lane_util = _median([
            c / (spans.duration_ns(i) / 1e9 * 2)
            for c, i in zip(s["cold_cpu_s"], spans.named("cold_pass"))])
    else:
        reps = spans.named("rep")
        rep_ns = [_work_ns(spans, i) for i in reps]
        jobs_per_s = 1e9 / _median(rep_ns)
        replay_per_s = sum(spans.items(i) for i in replay) / (
            sum(spans.duration_ns(i) for i in replay) / 1e9
        )
        persist_share = 0.0
        lane_util = _median([c / (spans.duration_ns(i) / 1e9)
                             for c, i in zip(s["rep_cpu_s"], reps)])

    successes = get("mac.successes")
    out = {
        "sim.events": get("sim.events_executed"),
        "sim.schedules_per_event": ratio(get("sim.queue.scheduled"), get("sim.queue.fired"))[0],
        "sim.cancel_ratio": ratio(get("sim.queue.cancelled"), get("sim.queue.scheduled"))[0],
        "sim.heap_share": 1.0 - ratio(dispatch_ns, run_for_ns)[0],
        "sim.churn_ns_per_event": _median(s["sim.churn_ns_per_event"]),
        "sim.cancel_ns_per_event": _median(s["sim.cancel_ns_per_event"]),
        "phy.tx_started": get("medium.tx_started"),
        "phy.checks_per_tx": ratio(get("medium.interference_checks"), get("medium.tx_started"))[0],
        "phy.corrupt_per_tx": ratio(get("medium.corrupt_deliveries"), get("medium.tx_started"))[0],
        "phy.medium_share": ratio(get("profile.medium.wall_ns"), dispatch_ns)[0],
        "phy.mark_share": ratio(get("profile.mark.wall_ns"), dispatch_ns)[0],
        "phy.dense_ns_per_tx": _median(s["phy.dense_ns_per_tx"]),
        "mac.attempts_per_success": ratio(successes + get("mac.failures"), successes)[0],
        "mac.enrollments_per_decision": ratio(
            get("mac.cohort.enrollments"), get("mac.cohort.decisions_fired"))[0],
        "mac.withdrawals_per_tx": ratio(get("mac.cohort.withdrawals"), get("medium.tx_started"))[0],
        "mac.station_share": ratio(get("profile.station.wall_ns"), dispatch_ns)[0],
        "mac.cohort_share": ratio(get("profile.cohort.wall_ns"), dispatch_ns)[0],
        "mac.build_s": med_self_ms("build") / 1e3,
        "traffic.arrivals": get("traffic.arrivals"),
        "traffic.drop_ratio": ratio(get("traffic.drops"), get("traffic.arrivals"))[0],
        "traffic.share": ratio(get("profile.traffic.wall_ns"), dispatch_ns)[0],
        "traffic.delay_p99_ms": get("delay_p99_ms"),
        "core.settle_sim_s": get("core.settle_sim_s"),
        "topology.plan_s": med_ms("topology") / 1e3,
        "topology.hidden_pairs": get("topology.hidden_pairs"),
        "exp.store_us": med_self_ms("store") * 1e3,
        "exp.lookup_us": med_self_ms("lookup") * 1e3,
        "exp.append_us": med_self_ms("append") * 1e3,
        "exp.replay_us": ratio(
            sum(spans.duration_ns(i) for i in replay) / 1e3,
            sum(spans.items(i) for i in replay))[0],
        "exp.persist_share": persist_share,
        "exp.jobs_per_s": jobs_per_s,
        "exp.replay_jobs_per_s": replay_per_s,
        "par.lane_util": lane_util,
        "obs.trace_overhead": quantile(traced, 0.5)[0] / quantile(untraced, 0.5)[0] - 1.0,
        "host.calib_ms": med_ms("calib"),
        "host.slice_ms_p50_raw": _median(
            [spans.duration_ns(i) / 1e6 for i in spans.named("slice", {"rep"})]),
    }
    return {k: (out[k], unit) for k, unit in units.items()}
