"""The shipped deployment under test: ``repro.serving.router`` with one worker.

:class:`Deployment` boots ``python -m repro.serving.router --replicas 1``
over the prepared checkpoint, finds the worker through the router's
``/healthz``, reads both processes' CPU time and peak RSS from ``/proc``,
and stops the router with SIGINT (it tears its pool down only on
``KeyboardInterrupt``).  A process still alive after the stop fails the run.

The two load functions send over one client, one request at a time:
``ide_session`` is a closed loop of greedy ``/v1/advise`` calls;
``batch_jobs`` submits every job up front and then polls them in order.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

_ROUTER_LINE = re.compile(r"routing MPI-RICAL advice on http://([\d.]+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: Interval between readiness and exit checks, and between job polls, seconds.
POLL_S = 0.01
JOB_POLL_S = 0.05


class DeploymentError(RuntimeError):
    pass


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` (all its threads), from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise DeploymentError(f"no VmHWM for pid {pid}")


def process_gone(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return True
    return state in ("Z", "X")


class Deployment:
    """One router + one worker, booted from the prepared checkpoint."""

    def __init__(self, root: Path, checkpoint: Path, workdir: Path,
                 env: dict[str, str]) -> None:
        self.root = root
        self.checkpoint = checkpoint
        self.workdir = workdir
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self.worker_pid = 0
        self.worker_endpoint: tuple[str, int] | None = None

    # ------------------------------------------------------------ lifecycle

    def start(self, deadline_s: float = 60.0) -> float:
        """Spawn the router and wait until its worker answers ``/healthz``.

        Returns the ``time.monotonic()`` at which the router was spawned.
        """
        self.workdir.mkdir(parents=True, exist_ok=True)
        log = self.workdir / "router.out"
        spawned = time.monotonic()
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serving.router",
                 "--replicas", "1", "--checkpoint", str(self.checkpoint),
                 "--pool-root", str(self.workdir / "pool"), "--port", "0"],
                cwd=self.root, env=self.env, stdout=out,
                stderr=subprocess.STDOUT)
        deadline = spawned + deadline_s
        while True:
            match = _ROUTER_LINE.search(log.read_text(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
            self._check_alive(deadline)
            time.sleep(POLL_S)
        _, health = self.get("/healthz")
        worker = health["pool"]["workers"][0]
        self.worker_pid = int(worker["pid"])
        host, port = worker["endpoint"].rsplit("//", 1)[1].split(":")
        self.worker_endpoint = (host, int(port))
        while True:
            try:
                status, _ = _request(*self.worker_endpoint, "GET", "/healthz")
                if status == 200:
                    return spawned
            except OSError:
                pass
            self._check_alive(deadline)
            time.sleep(POLL_S)

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise DeploymentError(
                f"router exited with {self.proc.returncode}: "
                f"{(self.workdir / 'router.out').read_text()[-2000:]}")
        if time.monotonic() > deadline:
            raise DeploymentError("router did not become ready in time")

    def stop(self, timeout: float = 30.0) -> None:
        """SIGINT the router, wait, and fail if any process survives."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout)
                raise DeploymentError("router ignored SIGINT and was killed")
        deadline = time.monotonic() + timeout
        while self.worker_pid and not process_gone(self.worker_pid):
            if time.monotonic() > deadline:
                os.kill(self.worker_pid, signal.SIGKILL)
                raise DeploymentError(
                    f"worker {self.worker_pid} survived the router's stop")
            time.sleep(POLL_S)

    # ---------------------------------------------------------- accounting

    @property
    def pids(self) -> list[int]:
        return [self.proc.pid, self.worker_pid]

    def cpu_seconds(self) -> float:
        return sum(proc_cpu_seconds(pid) for pid in self.pids)

    def peak_rss_mb(self) -> float:
        return sum(proc_peak_rss_mb(pid) for pid in self.pids)

    # ---------------------------------------------------------------- http

    def get(self, path: str) -> tuple[int, dict]:
        return _request(self.host, self.port, "GET", path)

    def post(self, path: str, payload: dict) -> tuple[int, dict]:
        return _request(self.host, self.port, "POST", path, payload)

    def worker_metrics(self) -> dict:
        return _request(*self.worker_endpoint, "GET", "/metrics")[1]


def _request(host: str, port: int, method: str, path: str,
             payload: dict | None = None) -> tuple[int, dict]:
    conn = HTTPConnection(host, port, timeout=120)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


# -------------------------------------------------------------------- loads


def _difference(served: str | None, expected: str) -> str:
    """Where a served ``generated_code`` first departs from the oracle's."""
    if served == expected:
        return "generated_code matches"
    if served is None:
        return "no generated_code"
    at = next((i for i, (a, b) in enumerate(zip(served, expected)) if a != b),
              min(len(served), len(expected)))
    return (f"generated_code differs at char {at}: served "
            f"{served[at:at + 60]!r}, oracle {expected[at:at + 60]!r}")


def _mismatch(label: str, op: dict, strategy: dict, served: str | None,
              *, credit: bool) -> dict:
    """A served ``generated_code`` unequal to the oracle's, judged after the
    run by :func:`rounding.settle`; ``credit``: its tokens count as
    generated (a cache hit's do not)."""
    return {"label": label, "code": op["code"], "strategy": strategy,
            "served": served, "expected": op["expected"], "credit": credit,
            "difference": _difference(served, op["expected"])}


def probe(deployment: Deployment, code: str, expected: str) -> float:
    """The first op of a fresh deployment; returns its completion time."""
    status, body = deployment.post("/v1/advise", {"code": code})
    if status != 200 or body.get("generated_code") != expected:
        raise DeploymentError(f"probe request failed: {status} {str(body)[:300]}")
    return time.monotonic()


def ide_session(deployment: Deployment, inputs: dict) -> dict:
    """Closed loop over the seeded request list; every response is checked."""
    latencies, failures, mismatches, tokens = [], [], [], 0
    started = time.perf_counter()
    for index, op in enumerate(inputs["requests"]):
        sent = time.perf_counter()
        status, body = deployment.post("/v1/advise", {"code": op["code"]})
        latencies.append((time.perf_counter() - sent) * 1000.0)
        code = body.get("generated_code")
        if status != 200 or body.get("cached") is not op["repeat"]:
            failures.append(f"request {index}: status {status}, cached "
                            f"{body.get('cached')} (expected {op['repeat']}), "
                            + _difference(code, op["expected"]))
        elif code != op["expected"]:
            mismatches.append(_mismatch(f"request {index}", op,
                                        {"name": "greedy"}, code,
                                        credit=not op["repeat"]))
        elif not op["repeat"]:
            tokens += op["tokens"]
    return {"wall_s": time.perf_counter() - started, "latencies_ms": latencies,
            "ops": len(latencies), "failures": failures,
            "mismatches": mismatches, "tokens": tokens,
            "handled": len(latencies)}


def batch_jobs(deployment: Deployment, inputs: dict) -> dict:
    """Submit every job, then poll each to completion in submission order.

    An item's latency runs from its job's submit to the first poll that
    shows it finished, so it resolves to the poll interval; the job tier
    runs jobs one at a time, so only the polled job can be finishing items.
    Every item's ``generated_code`` is checked; one unequal to the oracle's
    is left in ``mismatches`` for :func:`rounding.settle`.
    """
    failures, mismatches, tokens, submitted = [], [], 0, []
    started = time.perf_counter()
    for index, job in enumerate(inputs["jobs"]):
        items = [{"code": item["code"], "strategy": item["strategy"]}
                 for item in job]
        status, body = deployment.post("/v1/advise/batch", {"items": items})
        if status != 202:
            raise DeploymentError(f"job {index} refused: {status} {body}")
        submitted.append((body["job_id"], time.perf_counter()))
    latencies = []
    for (job_id, sent), job in zip(submitted, inputs["jobs"]):
        seen: dict[int, dict] = {}
        while True:
            status, body = deployment.get(f"/v1/jobs/{job_id}")
            if status != 200:
                raise DeploymentError(f"poll {job_id}: {status} {body}")
            polled = time.perf_counter()
            for envelope in body["results"]:
                if envelope["index"] not in seen:
                    seen[envelope["index"]] = envelope
                    latencies.append((polled - sent) * 1000.0)
            if body["status"] == "done":
                break
            time.sleep(JOB_POLL_S)
        for index, item in enumerate(job):
            envelope = seen.get(index, {})
            response = envelope.get("response", {})
            code = response.get("generated_code")
            label = f"{job_id} item {index} ({item['strategy']['name']})"
            if envelope.get("status") != "ok":
                failures.append(f"{label}: {envelope.get('status')}, "
                                + _difference(code, item["expected"]))
            elif response.get("cached") is not False:
                failures.append(f"{label}: cached is "
                                f"{response.get('cached')}, expected a miss")
            elif code != item["expected"]:
                mismatches.append(_mismatch(label, item, item["strategy"],
                                            code, credit=True))
            else:
                tokens += item["tokens"]
    items = sum(len(job) for job in inputs["jobs"])
    return {"wall_s": time.perf_counter() - started, "latencies_ms": latencies,
            "ops": items, "failures": failures, "mismatches": mismatches,
            "tokens": tokens, "handled": len(inputs["jobs"])}
