"""Machine and build facts recorded with every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def caches() -> dict[str, str]:
    """Cache sizes of cpu0 as the kernel reports them, e.g. {"L2": "2048K"}."""
    out = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(d / f) for f in ("level", "type", "size"))
        if level and size:
            out[f"L{level}{'i' if kind == 'Instruction' else 'd' if kind == 'Data' else ''}"] = size
    return out


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(root / ".git" / ref)
    if loose:
        return loose
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "torus_euler").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def working_set(resolution: int | None) -> dict[str, float] | None:
    """Array sizes of one grid, computed from shapes, in KiB."""
    if resolution is None:
        return None
    from torus_euler.lattice import preset_basis
    from torus_euler.spectral import Grid, modes

    points = resolution * resolution
    table = modes(Grid(preset_basis("square"), resolution, resolution))
    table_bytes = sum(getattr(table, f).nbytes for f in table.__dataclass_fields__)
    return {
        "complex_array_kib": points * 16 / 1024,
        "real_array_kib": points * 8 / 1024,
        "mode_table_kib": table_bytes / 1024,
        # c and k1..k4 of one RK4 step plus the mode table; temporaries excluded
        "rk4_live_kib_computed": (5 * points * 16 + table_bytes) / 1024,
    }


def fft_backend() -> dict[str, str]:
    import numpy.fft
    import scipy.fft

    return {
        "numpy.fft": "pocketfft" if hasattr(numpy.fft, "_pocketfft") else "unknown",
        "scipy.fft": f"{'pocketfft' if hasattr(scipy.fft, '_pocketfft') else 'unknown'}, "
                     f"default workers {scipy.fft.get_workers()}",
    }


def collect(root: Path, seed: int, resolution: int | None) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "working_set": working_set(resolution),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": fft_backend(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "workload_seed": seed,
        "TORUS_EULER_THREADS": os.environ.get("TORUS_EULER_THREADS"),
    }
