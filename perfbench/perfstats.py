"""Statistics and record folding for perfbench (stdlib only).

The C++ binary measures: it prints a raw record of end-to-end samples and
per-layer values. This module turns a record into the published metrics, so
every end-to-end median, percentile and failure fraction comes from the few
functions tested in test_perfstats.py.
"""
import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DEFAULT_SEED_RE = re.compile(r"\(default seed (\d+)\)")

# Percentiles tried, highest last, when reporting a latency tail.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
MIN_BEYOND = 10


def median(xs):
    """Median of a non-empty sample (mean of the middle two when even)."""
    if not xs:
        raise ValueError("median of an empty sample")
    s = sorted(xs)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def nearest_rank(n, p):
    """1-based nearest rank of percentile p (0 < p <= 100) in n samples."""
    if n < 1 or not 0 < p <= 100:
        raise ValueError("need n >= 1 and 0 < p <= 100")
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def percentile(xs, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the sample at or below it."""
    s = sorted(xs)
    return s[nearest_rank(len(s), p) - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank position of p."""
    return n - nearest_rank(n, p)


def tail_percentile(n, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """Highest percentile of `ladder` with at least `min_beyond` samples
    beyond it, or None when even the lowest lacks them."""
    best = None
    for p in ladder:
        if samples_beyond(n, p) >= min_beyond:
            best = p
    return best


def default_seed(workload):
    """The seed a workload runs with when none is given: BENCHMARK.json
    records it in the workload's reason, as "(default seed N)"."""
    m = DEFAULT_SEED_RE.search(workload.get("why", ""))
    return int(m.group(1)) if m else None


def failed_frac(attempted, failed):
    """Failed ops over attempted ops."""
    if attempted < 1:
        raise ValueError("no op was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def check_name(name):
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError("bad metric or workload name %r: want 1-64 of "
                         "[A-Za-z0-9_.-], starting with a letter or digit" % (name,))
    return name


def check_unit(unit):
    if not isinstance(unit, str) or not UNIT_RE.match(unit):
        raise ValueError("bad unit %r: want 1-16 of [A-Za-z0-9_/%%.-]" % (unit,))
    return unit


def check_spec(spec):
    """Validates the metric and workload declarations of BENCHMARK.json."""
    seen = set()
    for key in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[key]:
            name = check_name(entry["name"])
            if key != "workloads":
                if name in seen:
                    raise ValueError("metric %r declared twice" % name)
                seen.add(name)
                check_unit(entry["unit"])
                if entry["better"] not in ("lower", "higher"):
                    raise ValueError("metric %r: better must be lower or higher" % name)
    return spec


def steal_frac(cpu0, cpu1):
    """Share of host CPU time stolen by the hypervisor between two reads of
    the aggregate /proc/stat cpu line (lists of jiffies, steal at index 7)."""
    total = sum(cpu1[:8]) - sum(cpu0[:8])
    return (cpu1[7] - cpu0[7]) / total if total > 0 else 0.0


def read_cpu_times(path="/proc/stat"):
    try:
        with open(path) as f:
            fields = f.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    return [int(v) for v in fields[1:9]]


def end_to_end(rec):
    """The end-to-end metrics of one untraced record."""
    if rec["timed_wall_s"] <= 0 or not rec["op_s"] or not rec["setup_s"]:
        raise ValueError("record holds no timed ops")
    return {
        "setup_s": median(rec["setup_s"]),
        "op_s": median(rec["op_s"]),
        "ops_per_s": rec["ops"] / rec["timed_wall_s"],
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def per_layer(rec, names, steal):
    """Every declared per-layer metric of one traced record. Layers the
    workload does not exercise read 0."""
    layers = dict(rec["layers"])
    layers["gp.dataset_s"] = rec["dataset_s"]
    layers["host.steal_frac"] = steal
    layers["trace.overhead_frac"] = (
        median(rec["traced_op_s"]) / median(rec["untraced_op_s"]) - 1)
    unknown = set(layers) - set(names)
    if unknown:
        raise ValueError("undeclared layer metrics: %s" % ", ".join(sorted(unknown)))
    return {name: float(layers.get(name, 0.0)) for name in names}


def result_line(correct, attempted, failed, values, units):
    """The final stdout line: correct, attempted, failed, and metrics with units."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {check_name(k): {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
