"""The ``coeffs`` command: table rows, their CSV/JSON text and a disk cache.

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
# table materialization: rows of (k, j, value) or (k, value) strings

def _table_rows(kind: str, k_max: int) -> list[tuple]:
    if kind == "bernoulli":
        from .exact import bernoulli_table

        b = bernoulli_table(k_max)
        return [(k, str(b[k])) for k in range(k_max + 1)]
    if kind in ("q", "c"):
        from . import tables

        q = tables.build_q_table(k_max)
        if kind == "q":
            return [(k, j, str(q.get(k, j))) for k in range(k_max + 1) for j in range(k + 1)]
        c = tables.build_c_table(q)
        return [(k, j, str(c.get(k, j))) for k in range(1, k_max + 1) for j in range(k + 1)]
    from . import coeffs as co

    if kind == "alpha":
        a = co.solve_series_ode(k_max, k_max)
        return [
            (k, j, str(a.coeff(k, j)))
            for k in range(k_max + 1)
            for j in range(k_max + 1)
        ]
    if kind == "p":
        p = co.p_series(k_max)
        return [(k, str(p.coeff(k))) for k in range(k_max + 1)]
    raise ValueError(f"unknown table kind {kind!r}")


def _rows_to_csv(kind: str, rows: list[tuple]) -> str:
    header = "k,value" if kind in ("p", "bernoulli") else "k,j,value"
    return "\n".join([header] + [",".join(str(x) for x in r) for r in rows])


def _rows_to_json(kind: str, k_max: int, rows: list[tuple]) -> str:
    """Compact JSON, as ``json.dumps`` with separators (",", ":") writes it.

    Written by hand, so ``coeffs`` never imports ``json``: each row is its
    integer indices and one value string, a rational in canonical form,
    which holds no character JSON escapes.
    """
    entries = ",".join(
        "[" + "".join(f"{i}," for i in r[:-1]) + f'"{r[-1]}"]' for r in rows
    )
    return f'{{"table":"{kind}","k_max":{k_max},"entries":[{entries}]}}'


# ---------------------------------------------------------------------------
# disk cache: the CSV dump itself behind one metadata line

def _cache_path(cache_dir: Path, kind: str, k_max: int) -> Path:
    return cache_dir / f"{kind}-{k_max}.csv"


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


def _cache_save(cache_dir: Path, kind: str, k_max: int, rows: list[tuple]) -> None:
    """Write the table beside its final name, then rename it into place.

    The rename is atomic, so a reader sees the old file or the whole new
    one, never a partial write.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    body = (_rows_to_csv(kind, rows) + "\n").encode()
    path = _cache_path(cache_dir, kind, k_max)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(_cache_meta(kind, k_max, body) + body)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _cache_load(cache_dir: Path, kind: str, k_max: int) -> list[tuple] | None:
    """Smallest cached table of this kind with k_max >= requested, truncated.

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
    rows: list[tuple] = []
    for line in body.decode().splitlines()[1:]:  # skip the header
        parts = line.split(",")
        if len(parts) == 3:
            k, j, v = int(parts[0]), int(parts[1]), parts[2]
            if k <= k_max and j <= k_max:
                rows.append((k, j, v))
        elif len(parts) == 2:
            k, v = int(parts[0]), parts[1]
            if k <= k_max:
                rows.append((k, v))
    return rows


def emit_table(kind: str, k_max: int, fmt: str, cache_dir: str | None) -> int:
    """Print one table as json or csv, through the cache in ``cache_dir`` if
    set; exit code 2 when the cache cannot be read or written."""
    rows = None
    if cache_dir:
        try:
            rows = _cache_load(Path(cache_dir), kind, k_max)
        except OSError as exc:
            print(f"error: cache unreadable: {exc}", file=sys.stderr)
            return 2
    if rows is None:
        rows = _table_rows(kind, k_max)
        if cache_dir:
            try:
                _cache_save(Path(cache_dir), kind, k_max, rows)
            except OSError as exc:
                print(f"error: cache unwritable: {exc}", file=sys.stderr)
                return 2
    if fmt == "csv":
        print(_rows_to_csv(kind, rows))
    else:
        print(_rows_to_json(kind, k_max, rows))
    return 0
