"""The ``coeffs`` command: each table as its CSV lines, written out as CSV or
JSON, and a disk cache of those lines.

The coefficient-table cache lives under a directory the caller names; a
cached table built at a larger size serves any smaller request with
byte-identical output.  Each cache file records the row count and sha256
of its body; a file that fails that check is recomputed, never served.
Only the ``coeffs`` command loads this module.
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
    """Write the table beside its final name, then rename it into place.

    The rename is atomic, so a reader sees the old file or the whole new
    one, never a partial write.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    body = ("\n".join(lines) + "\n").encode()
    path = cache_dir / f"{kind}-{k_max}.csv"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(_cache_meta(kind, k_max, body) + body)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _cache_load(cache_dir: Path, kind: str, k_max: int) -> list[str] | None:
    """Smallest cached table of this kind with k_max >= requested: its
    header and the lines whose index fields are all at most k_max.

    A file of another version is a silent miss.  A file whose metadata
    line does not match its name and body (kind, k_max, row count and
    sha256) is corrupt: it is removed with a warning on stderr and counts
    as a miss, so the caller recomputes and rewrites the table.
    """
    if not cache_dir.is_dir():
        return None
    best: tuple[int, Path] | None = None
    for path in cache_dir.glob(f"{kind}-*.csv"):
        try:
            cached_max = int(path.stem.split("-", 1)[1])
        except ValueError:
            continue
        if cached_max >= k_max and (best is None or cached_max < best[0]):
            best = (cached_max, path)
    if best is None:
        return None
    cached_max, path = best
    meta, _, body = path.read_bytes().partition(b"\n")
    if f"version={CACHE_VERSION}".encode() not in meta.split(b" "):
        return None
    if meta + b"\n" != _cache_meta(kind, cached_max, body):
        print(f"warning: cache file {path} is corrupt; recomputing", file=sys.stderr)
        with contextlib.suppress(OSError):
            path.unlink()
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
