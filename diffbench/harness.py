"""Measurement rules shared by the benchmark runner and its self-tests.

- Percentiles are nearest-rank. A timing is reported as its median and
  the highest percentile that still has at least ten samples beyond it,
  together with the sample count.
- A request counts as failed unless it was answered 200: refusals
  (429), other statuses and connection errors (status 0) alike. A
  failed request also counts as missing every latency percentile, so it
  enters the latency sample as +inf.
- Metric names match NAME_RE.
- Every run works in a fresh directory, so no run sees another's cache.
- A CPU-bound command's wall-clock is scaled to the reference host by
  the reference kernel's nominal time over its mean time in the kernel
  runs just before and just after the command.
"""

import math
import re
import tempfile

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def valid_name(name):
    return bool(NAME_RE.match(name))


def rank(p, n):
    """1-based nearest rank of the p-th percentile among n samples."""
    # Rounding first keeps float error (99.9 / 100 * 10000 is
    # 9990.000000000002) from pushing the rank up by one.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p):
    """Nearest-rank p-th percentile of `values` (which may hold +inf)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(p, len(values)) - 1]


def tail_percentile(values):
    """(p, value, n): the highest percentile with >= 10 samples beyond it.

    Returns p = None when there are too few samples for even the median.
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        beyond = n - rank(p, n)
        if beyond >= 10:
            return p, percentile(values, p), n
    return None, None, n


def host_scale(nominal_s, before_s, after_s):
    """Factor that turns a wall-clock measured between two reference
    kernel runs of `before_s` and `after_s` into reference-host time."""
    return nominal_s / ((before_s + after_s) / 2)


def request_failed(status):
    return status != 200


def summarize_requests(records):
    """Folds (kind, status, latency_ns) records into the serve figures.

    Returns a dict with attempted, failed, ok, the per-request latency
    sample in ms (failed requests as +inf), and the figures derived from
    it.
    """
    latencies = []
    failed = 0
    for _kind, status, latency_ns in records:
        if request_failed(status):
            failed += 1
            latencies.append(math.inf)
        else:
            latencies.append(latency_ns / 1e6)
    out = {
        "attempted": len(records),
        "failed": failed,
        "ok": len(records) - failed,
        "latencies_ms": latencies,
    }
    if latencies:
        out["p50_ms"] = percentile(latencies, 50)
        out["p90_ms"] = percentile(latencies, 90)
        out["p99_ms"] = percentile(latencies, 99)
        out["tail"] = tail_percentile(latencies)
    return out


def parse_samples(text):
    """Parses the probe's `kind status latency_ns` lines."""
    records = []
    for line in text.splitlines():
        if line.strip():
            kind, status, latency = line.split()
            records.append((kind, int(status), int(latency)))
    return records


def fresh_workdir(base):
    """A new, empty directory under `base` for one run's caches."""
    return tempfile.mkdtemp(prefix="run-", dir=base)

