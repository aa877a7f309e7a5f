"""Shared helpers: statistics, memory readings, the environment block.

The benchmark only reads and writes inside the checkout it runs from:
every store, trace and result file lives under ``<root>/.perfbench/``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

WORK_DIR = ".perfbench"


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over dicts that share their keys."""
    return {name: median(row[name] for row in rows) for name in rows[0]} \
        if rows else {}


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Context:
    """What one benchmark run hands its workload."""

    root: str
    seed: int
    seconds: float
    trace: bool
    work: str
    tracer: Any = None
    reference: Dict[str, Any] = field(default_factory=dict)

    def turns(self, minimum: int) -> Iterator[Tuple[int, bool]]:
        """``(index, traced?)`` per repetition until ``seconds`` are up.

        An untraced run never traces.  A traced run alternates untraced
        and traced repetitions over the same time, so both see the same
        machine and their difference is the tracing overhead.  At least
        ``minimum`` repetitions of each kind run, however long they take.
        """
        kinds = 2 if self.trace else 1
        deadline = time.perf_counter() + self.seconds
        index = 0
        while index < minimum * kinds or time.perf_counter() < deadline:
            yield index, self.trace and index % 2 == 1
            index += 1

    @contextmanager
    def measuring(self, traced: bool):
        """One repetition; the wrappers exist only while ``traced``."""
        from tracing import install, uninstall

        installed = install(self.tracer) if traced else []
        self.tracer.enabled = traced
        try:
            yield
        finally:
            self.tracer.enabled = False
            uninstall(installed)


@dataclass
class Report:
    """A workload's figures: untraced end-to-end, traced per-layer."""

    e2e: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    traced_e2e: Dict[str, float] = field(default_factory=dict)
    #: Output digests, for recording ``reference.json`` at the default seed.
    digests: Dict[str, str] = field(default_factory=dict)
    #: Raw untraced samples, ``name -> [[seconds into the run, value]]``.
    samples: Dict[str, List[List[float]]] = field(default_factory=dict)

    def sample(self, name: str, at: float, value: float) -> None:
        self.samples.setdefault(name, []).append([at, value])


def overhead(untraced: float, traced: float) -> float:
    return traced / untraced - 1.0 if untraced > 0 else 0.0


class Tally:
    """Operations attempted and failed, with the first failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record ``what`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Live direct children of ``pid`` (scans /proc)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def _filesystem(path: str) -> str:
    """Type of the filesystem holding ``path`` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def _commit(root: str) -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else None."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]),
                      encoding="ascii") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def source_digest(root: str) -> str:
    """sha256 over every ``src/**/*.py`` path and its bytes."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(root: str, store_dir: str) -> Dict[str, object]:
    """The environment block every result file carries."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": _commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "store_filesystem": _filesystem(store_dir),
    }
