"""Program processes started from a small process of their own, so that
each reports its own peak memory.

On Linux a process's max RSS (``ru_maxrss``, as ``wait4`` returns it)
starts at the high-water RSS of the memory map it replaced at exec, that
is, of the process that started it.  The harness has numpy, scipy, mpmath
and cknlab loaded, so a program process started by it directly would
report at least the harness's own peak.  The server below is a fresh
interpreter that imports only the standard library: the processes it
starts report their own peak, or the server's (about 14 MB) if that were
larger.  It also times each process, from start to reaping.

The server reads one JSON request a line on stdin and answers each with
one JSON line on stdout; it ends when stdin closes:

    python3 bench/spawn.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple


def _run(argv: List[str], cwd: str, env: Dict[str, str], stdout: str, stderr: str,
         timeout: float) -> dict:
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {"seconds": seconds, "code": proc.returncode, "maxrss_kib": usage.ru_maxrss}


def serve() -> None:
    for line in sys.stdin:
        print(json.dumps(_run(**json.loads(line))), flush=True)


class Spawner:
    """Client of one server process; use it as a context manager."""

    def __init__(self, scratch: Path) -> None:
        self._out, self._err = scratch / "program.stdout", scratch / "program.stderr"
        self._server = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)

    def run(self, argv: List[str], cwd: Path, env: Dict[str, str],
            timeout: float) -> Tuple[float, int, bytes, str, int]:
        """Run ``argv`` to its end; (seconds, exit code, stdout, stderr, max
        RSS in KiB)."""
        request = {"argv": argv, "cwd": str(cwd), "env": env, "stdout": str(self._out),
                   "stderr": str(self._err), "timeout": timeout}
        self._server.stdin.write(json.dumps(request) + "\n")
        self._server.stdin.flush()
        answer = json.loads(self._server.stdout.readline())
        return (answer["seconds"], answer["code"], self._out.read_bytes(),
                self._err.read_bytes().decode(errors="replace"), answer["maxrss_kib"])

    def close(self) -> None:
        self._server.stdin.close()
        self._server.wait()
        self._server.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
