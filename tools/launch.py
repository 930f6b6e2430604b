"""Run one command as a child and report its exit code, stdout and peak memory.

    python -S tools/launch.py CMD [ARG ...]

prints one line: ``EXIT_CODE STDOUT_BYTES STDOUT_SHA256 PEAK_RSS_KIB WALL_S``.
Stdout is hashed as it streams and never kept.  On Linux a child's
``ru_maxrss`` starts at its parent's resident size, since ``fork`` copies
it, so this launcher imports little: started with ``-S`` it stays below
the peak of any tautrel command.
"""

import hashlib
import os
import sys
import time


def main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write(__doc__)
        return 2
    r, w = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        os.dup2(w, 1)
        os.close(w)
        try:
            os.execvp(argv[0], argv)
        except OSError as exc:
            os.write(2, f"launch: {argv[0]}: {exc.strerror}\n".encode())
        os._exit(127)
    os.close(w)
    digest, size = hashlib.sha256(), 0
    while chunk := os.read(r, 1 << 16):
        digest.update(chunk)
        size += len(chunk)
    os.close(r)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    print(code, size, digest.hexdigest(), usage.ru_maxrss, f"{wall:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
