"""Summary statistics and provenance for one benchmark run."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def tail_percentile(samples: list[float], q: float) -> tuple[float, int]:
    """The ``q``-th percentile (0-100) and the count of samples above it.

    Linear interpolation between order statistics, as ``numpy.percentile``.
    Raises ``ValueError`` when fewer than :data:`MIN_TAIL_SAMPLES` samples
    lie strictly beyond the value: such a percentile is one outlier away
    from a different number and is not reported.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    beyond = sum(1 for x in xs if x > value)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples has {beyond} beyond it "
            f"(< {MIN_TAIL_SAMPLES})"
        )
    return value, beyond


def median(values: list[float]) -> float:
    """Median of a non-empty list."""
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process [MiB] (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest(src: Path) -> str:
    """SHA-256 over every file under ``src`` (path and bytes), sorted.

    Identifies the measured code where the checkout carries no git
    metadata.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": "unknown", "version": "unknown"}
    return {"name": info.get("name"), "version": info.get("version")}


def provenance(root: Path) -> dict:
    """What produced a result: code identity, library versions, host."""
    import numpy
    import scipy

    from repro.obs.manifest import git_sha

    cpus = sorted(os.sched_getaffinity(0))
    threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None
    return {
        # The checkout may carry no git metadata; src_sha256 always applies.
        "git_sha": git_sha(root) if (root / ".git").exists() else None,
        "src_sha256": source_digest(root / "src"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": threads,
        "blas_threads_within_cpus": threads is not None and threads <= len(cpus),
        "cpus": cpus,
        "host": platform.node(),
        "machine": platform.machine(),
    }
