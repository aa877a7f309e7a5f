"""service-mixed: ``repro-diag serve`` in a subprocess, two HTTP clients.

The server is the stdlib host with ``--workers 2`` on a fresh store.
Two closed-loop client threads replay seeded operation streams (see
:func:`generators.service_ops`): warm re-POSTs of preloaded
submissions, GETs of their results in rotating formats, and fresh N=4
RunSpecs followed on their SSE stream to the terminal event.  Running
the server in its own process keeps the load generator off its GIL.

On a machine with two or more CPUs the server is pinned to one of them
and the load generator to the others.  The server's threads share one
GIL, so it never uses more than about one CPU; pinned, a GIL hand-off
between its threads stays on one CPU instead of waking the other, and
the clients never preempt it.  With a CPU-bound process competing,
unpinned runs read 11-26% worse, pinned ones at most 15%.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import Context, Report, Tally, median, overhead, percentile
from common import vm_hwm_mb
from generators import (
    SERVICE_CLIENTS,
    SERVICE_ROUNDS,
    service_ops,
    service_warm_set,
)
from repro.campaign import result_document, run_campaign
from repro.obs.export import render_json
from repro.results.render import render_tables
from repro.results.source import parse_document, tables_for_document
from repro.service.serialization import parse_job_request

#: The server is set up this many times per run; setup_s is the median.
SETUPS = 5
START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
#: A traced run alternates untraced and traced windows this long.
TRACE_SLICE = 2.5
#: Fresh jobs per client re-checked against an in-process computation.
FRESH_CHECKS = 3
#: peak_rss_mb is read once the clients have completed this many
#: operations.  The server keeps every job it ran, so read at the end of
#: the window its memory would grow with the operations that fit in it,
#: and a faster server would read as a larger one.  The slowest runs
#: seen complete about 3,300 operations in 25 s.
RSS_AFTER_OPS = 2000
_RENDER_FORMATS = {"md": "markdown", "html": "html", "csv": "csv"}
_TERMINAL = ("done", "failed")


def _split_cpus() -> Tuple[Optional[set], Optional[set]]:
    """(server CPUs, client CPUs), or (None, None) on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, set(cpus[:-1])


class Server:
    """One ``repro-diag serve`` subprocess on a fresh store."""

    def __init__(self, ctx: Context, cpus: Optional[set] = None) -> None:
        self.store = tempfile.mkdtemp(prefix="svc-store-", dir=ctx.work)
        env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))
        self._log = open(os.path.join(self.store, "server.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--store", os.path.join(self.store, "store"),
             "--workers", "2"],
            cwd=ctx.root, env=env, stdout=subprocess.PIPE,
            stderr=self._log,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus
            else None)
        try:
            self.host, self.port = self._address()
        except BaseException:
            self.stop()
            raise

    def _address(self) -> Tuple[str, int]:
        ready, _w, _x = select.select([self.proc.stdout], [], [],
                                      START_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.rsplit("http://", 1)[1].strip().rstrip("/")
        host, port = address.rsplit(":", 1)
        return host, int(port)

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def follow(self, job_id: str) -> Dict[str, float]:
        """Read a job's SSE stream to its terminal event.

        Returns the arrival time of each first event kind, plus the
        terminal kind under ``"terminal"``.
        """
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT)
        seen: Dict[str, Any] = {}
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            while True:
                line = response.readline()
                if not line:
                    break
                if line.startswith(b"event: "):
                    kind = line[7:].strip().decode()
                    seen.setdefault(kind, time.perf_counter())
                    if kind in _TERMINAL:
                        seen["terminal"] = kind
                        break
        finally:
            conn.close()
        return seen

    def wait_healthy(self) -> None:
        deadline = time.perf_counter() + START_TIMEOUT
        while time.perf_counter() < deadline:
            try:
                if self.request("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                time.sleep(0.01)
        raise RuntimeError("server never answered /healthz")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (drain and stop), then kill if it hangs; always reaped."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=20)
        finally:
            self.proc.stdout.close()
            self._log.close()
            shutil.rmtree(self.store, ignore_errors=True)


def _submit(server: Server, body: bytes) -> Tuple[int, Dict[str, Any]]:
    status, data = server.request("POST", "/v1/jobs", body)
    try:
        return status, json.loads(data)
    except ValueError:
        return status, {}


def _preload(server: Server, bodies: List[bytes], tally: Tally) -> List[str]:
    job_ids = []
    for body in bodies:
        status, reply = _submit(server, body)
        job_id = reply.get("job_id", "")
        seen = server.follow(job_id) if status in (200, 201) else {}
        tally.check(seen.get("terminal") == "done",
                    f"preload job ended {seen.get('terminal')!r}")
        job_ids.append(job_id)
    return job_ids


class _MemoryProbe:
    """The server's VmHWM, read when the clients' ``after``-th op ends."""

    def __init__(self, server: Server, after: int) -> None:
        self._server = server
        self._left = after
        self._lock = threading.Lock()
        self.value: Optional[float] = None

    def tick(self) -> None:
        with self._lock:
            self._left -= 1
            if self._left == 0:
                self.value = self._server.peak_rss_mb()


def _client(server: Server, ops, warm_bodies: List[bytes],
            job_ids: List[str], deadline: float, tracer, probe: _MemoryProbe,
            records: List[Tuple]) -> None:
    """One closed-loop client: next operation once the last completes."""
    while time.perf_counter() < deadline:
        kind, arg = next(ops)
        start = time.perf_counter()
        try:
            _operation(server, kind, arg, warm_bodies, job_ids, tracer,
                       records)
        except (OSError, http.client.HTTPException) as exc:
            records.append(("error", time.perf_counter() - start, False,
                            {"error": f"{kind}: {exc!r}", "at": start}))
        probe.tick()


def _operation(server: Server, kind: str, arg, warm_bodies: List[bytes],
               job_ids: List[str], tracer, records: List[Tuple]) -> None:
    """One operation of the mix, appended to ``records``."""
    if kind == "warm":
        with tracer.span("service.post_warm"):
            start = time.perf_counter()
            status, reply = _submit(server, warm_bodies[arg])
            elapsed = time.perf_counter() - start
        cached = reply.get("cached") is True
        records.append(("warm", elapsed, status == 200 and cached
                        and reply.get("job_id") == job_ids[arg],
                        {"index": arg, "cached": cached, "at": start}))
    elif kind == "result":
        index, fmt = arg
        with tracer.span("service.get_result"):
            start = time.perf_counter()
            status, data = server.request(
                "GET", f"/v1/jobs/{job_ids[index]}/result?format={fmt}")
            elapsed = time.perf_counter() - start
        records.append(("result", elapsed, status == 200,
                        (index, fmt, hashlib.sha256(data).hexdigest())))
    else:
        with tracer.span("service.fresh_job"):
            start = time.perf_counter()
            status, reply = _submit(server, json.dumps(arg).encode())
            posted = time.perf_counter()
            seen = (server.follow(reply.get("job_id", ""))
                    if status == 201 else {})
        done = time.perf_counter()
        ok = seen.get("terminal") == "done" and "plan" in seen
        records.append(("fresh", done - start, ok, {
            "job_id": reply.get("job_id"), "body": arg,
            "cached": reply.get("cached") is True, "at": start,
            "queue_wait": seen.get("plan", done) - posted,
            "run": done - seen.get("plan", done)}))


def _window(server: Server, streams, warm_bodies, job_ids, seconds: float,
            tracer, probe: _MemoryProbe) -> Tuple[List[Tuple], float]:
    records: List[List[Tuple]] = [[] for _ in streams]
    start = time.perf_counter()
    deadline = start + seconds
    threads = [threading.Thread(target=_client, args=(
        server, ops, warm_bodies, job_ids, deadline, tracer, probe, out))
        for ops, out in zip(streams, records)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return [r for client in records for r in client], elapsed


def _figures(records: List[Tuple], elapsed: float) -> Tuple[Dict, Dict, Dict]:
    warm = [r[1] for r in records if r[0] == "warm"]
    results = [r for r in records if r[0] == "result"]
    fresh = [r for r in records if r[0] == "fresh"]
    requests = warm + [r[1] for r in results]
    jobs = [r[1] for r in fresh]
    done = sum(1 for r in fresh if r[2])
    e2e = {
        "rounds_per_s": done * SERVICE_ROUNDS / elapsed,
        "cold_s": median(jobs),
        "warm_s": median(warm),
    }
    detail = {
        "request_p50_ms": 1e3 * median(requests),
        "request_p99_ms": 1e3 * percentile(requests, 99),
        "requests_per_s": len(requests) / elapsed,
        "job_p50_ms": 1e3 * median(jobs),
        "job_p90_ms": 1e3 * percentile(jobs, 90),
        "samples": len(records),
    }
    layers = {
        "service.post_warm_p50_ms": 1e3 * median(warm),
        "service.post_warm_p99_ms": 1e3 * percentile(warm, 99),
        "service.result_json_p50_ms": 1e3 * median(
            r[1] for r in results if r[3][1] == "json"),
        "service.result_rendered_p50_ms": 1e3 * median(
            r[1] for r in results if r[3][1] != "json"),
        "service.queue_wait_p50_ms": 1e3 * median(
            r[3]["queue_wait"] for r in fresh),
        "service.run_p50_ms": 1e3 * median(r[3]["run"] for r in fresh),
        "service.cached_ratio": sum(
            1 for r in records if r[0] in ("warm", "fresh") and r[3]["cached"]
        ) / max(1, len(warm) + len(fresh)),
    }
    layers.update({"service." + k: v for k, v in detail.items()
                   if k != "samples"})
    return e2e, detail, layers


def _expected(body: Dict[str, Any]) -> Dict[str, str]:
    """What the service must answer for ``body``, computed in-process."""
    definition = parse_job_request(body).definition
    result = run_campaign(definition.labeled_specs, name=definition.name)
    document = result_document(definition, result)
    texts = {"json": render_json(document)}
    tables = tables_for_document(parse_document(document))
    for fmt, renderer in _RENDER_FORMATS.items():
        texts[fmt] = render_tables(tables, renderer) + "\n"
    return {fmt: hashlib.sha256(text.encode()).hexdigest()
            for fmt, text in texts.items()}


def _verify(server: Server, ctx: Context, tally: Tally, records,
            warm_set: List[Dict[str, Any]]) -> None:
    """Check every recorded answer, outside the timed window."""
    expected = [_expected(body) for body in warm_set]
    for kind, _elapsed, ok, info in records:
        if kind == "warm":
            tally.check(ok, f"warm POST {info['index']} not answered "
                            "cached")
        elif kind == "result":
            index, fmt, digest = info
            tally.check(ok and digest == expected[index][fmt],
                        f"result {index} ({fmt}) differs")
        elif kind == "fresh":
            tally.check(ok, f"fresh job {info['job_id']} did not finish")
        else:
            tally.check(False, info["error"])
    fresh = [r[3] for r in records if r[0] == "fresh" and r[2]]
    rng = random.Random(f"perfbench-svc-{ctx.seed}")
    for info in rng.sample(fresh, min(len(fresh),
                                      FRESH_CHECKS * SERVICE_CLIENTS)):
        status, data = server.request(
            "GET", f"/v1/jobs/{info['job_id']}/result?format=json")
        tally.check(status == 200 and hashlib.sha256(data).hexdigest()
                    == _expected(info["body"])["json"],
                    f"fresh job {info['job_id']} result differs")


def _server_counters(server: Server) -> Dict[str, float]:
    status, data = server.request("GET", "/v1/metrics")
    if status != 200:
        raise RuntimeError(f"/v1/metrics answered {status}")
    metrics = json.loads(data)
    service = metrics["service"]["counters"]
    store = metrics["store"]["counters"]
    hits, misses = store.get("store.hit", 0), store.get("store.miss", 0)
    return {"service.rejected": service.get("service.rejected", 0),
            "store.hit_ratio": hits / (hits + misses) if hits + misses
            else 0.0}


def run(ctx: Context, tally: Tally) -> Report:
    warm_set = service_warm_set(ctx.seed)
    warm_bodies = [json.dumps(body).encode() for body in warm_set]
    setups: List[float] = []
    server = None
    own_cpus = os.sched_getaffinity(0)
    server_cpus, client_cpus = _split_cpus()
    if client_cpus:
        # Threads started from here on (the clients) inherit this mask.
        os.sched_setaffinity(0, client_cpus)
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            server = Server(ctx, server_cpus)
            server.wait_healthy()
            job_ids = _preload(server, warm_bodies, tally)
            setups.append(time.perf_counter() - start)
        streams = [service_ops(ctx.seed, client, len(warm_set))
                   for client in range(SERVICE_CLIENTS)]
        report = Report()
        records: Dict[bool, List[Tuple]] = {False: [], True: []}
        elapsed: Dict[bool, float] = {False: 0.0, True: 0.0}
        window = TRACE_SLICE if ctx.trace else ctx.seconds
        probe = _MemoryProbe(server, RSS_AFTER_OPS)
        for index, traced in ctx.turns(1):
            ctx.tracer.run_id = f"window-{index}"
            with ctx.measuring(traced):
                got, seconds = _window(server, streams, warm_bodies,
                                       job_ids, window, ctx.tracer, probe)
            records[traced].extend(got)
            elapsed[traced] += seconds
        report.e2e, report.detail, _layers = _figures(records[False],
                                                      elapsed[False])
        report.e2e["setup_s"] = median(setups)
        for kind, seconds, _ok, info in records[False]:
            if kind in ("warm", "fresh"):
                report.sample(kind, info["at"], seconds)
        if ctx.trace:
            report.traced_e2e, _detail, report.layers = _figures(
                records[True], elapsed[True])
            report.layers.update(_server_counters(server))
            report.layers["trace.overhead_frac"] = overhead(
                report.e2e["warm_s"], report.traced_e2e["warm_s"])
        ops = len(records[False]) + len(records[True])
        # A run too short to reach RSS_AFTER_OPS reads at its end.
        report.e2e["peak_rss_mb"] = (probe.value if probe.value is not None
                                     else server.peak_rss_mb())
        report.detail["rss_after_ops"] = min(ops, RSS_AFTER_OPS)
        _verify(server, ctx, tally, records[False] + records[True],
                warm_set)
        return report
    finally:
        if server is not None:
            server.stop()
        os.sched_setaffinity(0, own_cpus)
