"""The ``coeffs`` command: each table as its CSV lines, written out as CSV or
JSON, and a disk cache of those lines.

The coefficient-table cache lives under a directory the caller names and
holds one file per table kind, ``<kind>.csv``; the table in it serves any
request at or below the size it was built at with byte-identical output,
and a larger request rebuilds the table and replaces the file.  Each cache
file records its size, row count and sha256; a file that fails that check
is recomputed, never served.  Only the ``coeffs`` command loads this module.
"""

from __future__ import annotations

import contextlib
import os
import sys
from pathlib import Path

CACHE_VERSION = 2


# ---------------------------------------------------------------------------
# the one row form: CSV lines "k,j,value" or "k,value", header first

def _table_lines(kind: str, k_max: int) -> list[str]:
    if kind == "bernoulli":
        from .exact import bernoulli_table

        b = bernoulli_table(k_max)
        return ["k,value"] + [f"{k},{b[k]!s}" for k in range(k_max + 1)]
    if kind in ("q", "c"):
        from . import tables

        t = tables.build_q_table(k_max)
        if kind == "c":
            t = tables.build_c_table(t)
        return ["k,j,value"] + [
            f"{k},{j},{t.get(k, j)!s}"
            for k in range(1 if kind == "c" else 0, k_max + 1)
            for j in range(k + 1)
        ]
    from . import coeffs as co

    if kind == "alpha":
        a = co.solve_series_ode(k_max, k_max)
        return ["k,j,value"] + [
            f"{k},{j},{a.coeff(k, j)!s}" for k in range(k_max + 1) for j in range(k_max + 1)
        ]
    if kind == "p":
        p = co.p_series(k_max)
        return ["k,value"] + [f"{k},{p.coeff(k)!s}" for k in range(k_max + 1)]
    raise ValueError(f"unknown table kind {kind!r}")


def _lines_to_json(kind: str, k_max: int, lines: list[str]) -> str:
    """Compact JSON, as ``json.dumps`` with separators (",", ":") writes it.

    Written by hand, so ``coeffs`` never imports ``json``: each entry is a
    row's integer indices and its value string, split off at the last
    comma.  A rational in canonical form holds no comma and no character
    JSON escapes.
    """
    entries = ",".join(
        f'[{indices},"{value}"]' for indices, value in (line.rsplit(",", 1) for line in lines[1:])
    )
    return f'{{"table":"{kind}","k_max":{k_max},"entries":[{entries}]}}'


# ---------------------------------------------------------------------------
# disk cache: the CSV lines themselves behind one metadata line

def _cache_meta(kind: str, k_max: int, body: bytes) -> bytes:
    """Metadata line that pins the body: its row count and its sha256."""
    # Imported here, not at the top: hashlib loads OpenSSL, about 3 MB of
    # resident memory that commands without a cache would pay for nothing.
    import hashlib

    rows = body.count(b"\n") - 1  # lines after the header
    digest = hashlib.sha256(body).hexdigest()
    return (
        f"# kind={kind} k_max={k_max} version={CACHE_VERSION}"
        f" rows={rows} sha256={digest}\n"
    ).encode()


def _cache_save(cache_dir: Path, kind: str, k_max: int, lines: list[str]) -> None:
    """Write the table beside the kind's cache file, then rename it over
    that file.

    The rename is atomic, so a reader sees the old file or the whole new
    one, never a partial write.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    body = ("\n".join(lines) + "\n").encode()
    path = cache_dir / f"{kind}.csv"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(_cache_meta(kind, k_max, body) + body)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _cache_load(cache_dir: Path, kind: str, k_max: int) -> list[str] | None:
    """The cached table's header and the lines whose index fields are all
    at most k_max, if the kind's file holds a table built at k_max or above.

    No file, a file of another version and a smaller table are silent
    misses.  A file whose metadata line does not match its body (kind,
    k_max, row count and sha256) is corrupt: it counts as a miss, with a
    warning on stderr.  The caller rewrites the file on every miss.
    """
    path = cache_dir / f"{kind}.csv"
    try:
        meta, _, body = path.read_bytes().partition(b"\n")
    except (FileNotFoundError, NotADirectoryError):
        return None
    if f"version={CACHE_VERSION}".encode() not in meta.split(b" "):
        return None
    # the size is the last row's first index, which the metadata must name
    size = body[body.rfind(b"\n", 0, -1) + 1 :].partition(b",")[0]
    if not size.isdigit() or meta + b"\n" != _cache_meta(kind, int(size), body):
        print(f"warning: cache file {path} is corrupt; recomputing", file=sys.stderr)
        return None
    if int(size) < k_max:
        return None
    header, *rows = body.decode().splitlines()
    return [header] + [line for line in rows if max(map(int, line.split(",")[:-1])) <= k_max]


def emit_table(kind: str, k_max: int, fmt: str, cache_dir: str | None) -> int:
    """Print one table as json or csv, through the cache in ``cache_dir`` if
    set; exit code 2 when the cache cannot be read or written."""
    lines = None
    if cache_dir:
        try:
            lines = _cache_load(Path(cache_dir), kind, k_max)
        except OSError as exc:
            print(f"error: cache unreadable: {exc}", file=sys.stderr)
            return 2
    if lines is None:
        lines = _table_lines(kind, k_max)
        if cache_dir:
            try:
                _cache_save(Path(cache_dir), kind, k_max, lines)
            except OSError as exc:
                print(f"error: cache unwritable: {exc}", file=sys.stderr)
                return 2
    print("\n".join(lines) if fmt == "csv" else _lines_to_json(kind, k_max, lines))
    return 0
