"""Run ``repro serve`` as a separate process and clean up after it.

:class:`GatewayProcess` spawns the gateway (plain, or through
``perfbench/traced_gateway.py`` for a traced pass), reads the listening
address from its banner, and on :meth:`GatewayProcess.stop` checks
process hygiene: the gateway is reaped, none of its children (forked
TCP host processes) survive, and its port no longer accepts
connections.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import subprocess
import sys
import time
from typing import List, Optional, Set, Tuple

#: Per-principal admission far above any rate the harness offers, so
#: the rate limiter never sheds a benchmark request.
ADMIT_ALL = "1000000000"

#: Seconds a starting gateway has to print its listening address.
STARTUP_TIMEOUT = 60.0


def _children(pid: int) -> List[int]:
    """Direct children of ``pid`` (Linux ``/proc``)."""
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except FileNotFoundError:
            continue
    return found


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


def own_children() -> List[int]:
    """Live children of the benchmark process itself."""
    return [pid for pid in _children(os.getpid()) if _alive(pid)]


def listening_ports() -> Set[int]:
    """Local TCP ports in the LISTEN state in this network namespace."""
    ports: Set[int] = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as handle:
                rows = handle.read().splitlines()[1:]
        except FileNotFoundError:
            continue
        for row in rows:
            fields = row.split()
            if fields[3] == "0A":
                ports.add(int(fields[1].rsplit(":", 1)[1], 16))
    return ports


class GatewayProcess:
    """One ``repro serve`` process on an OS-assigned localhost port."""

    def __init__(self, root: str, trace_out: Optional[str] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        serve = ["serve", "--port", "0", "--rate", ADMIT_ALL,
                 "--burst", ADMIT_ALL]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro"] + serve
        else:
            launcher = os.path.join(root, "perfbench", "traced_gateway.py")
            argv = [sys.executable, launcher, trace_out] + serve
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True
        )
        self.address = self._read_address()

    def _read_address(self) -> Tuple[str, int]:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        stdout = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline()
                if line.startswith("serving on "):
                    host, port = line.split()[2].rsplit(":", 1)
                    return host, int(port)
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        self.proc.kill()
        self.proc.wait()
        raise RuntimeError("repro serve did not report a listening address")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        """The gateway's peak resident set size (``VmHWM``), in MiB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> List[str]:
        """Stop the gateway; returns hygiene problems (empty when clean)."""
        problems: List[str] = []
        children = _children(self.pid)
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            problems.append("gateway ignored SIGINT for 30 s; killed")
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            problems.append(f"gateway exited with {self.proc.returncode}")
        deadline = time.monotonic() + 5
        while any(_alive(pid) for pid in children):
            if time.monotonic() > deadline:
                problems.append(
                    "gateway children outlived it: "
                    f"{[pid for pid in children if _alive(pid)]}"
                )
                break
            time.sleep(0.05)
        probe = socket.socket()
        probe.settimeout(1.0)
        try:
            probe.connect(self.address)
            problems.append(f"port {self.address[1]} still accepts connections")
        except OSError:
            pass
        finally:
            probe.close()
        return problems

