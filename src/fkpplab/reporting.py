"""Experiment reports: per-epsilon rows, fits, checks, deterministic CSV.

The CSV is the source of truth and must be byte-identical across reruns of
the same configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__

# Rows formatted per call by write_table (bounds its temporaries).
TABLE_ROWS = 4096


def config_hash(params: dict) -> str:
    """Canonical hash of a (nested) parameter mapping."""
    blob = json.dumps(params, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def fmt(x) -> str:
    """Deterministic float formatting (17 significant digits)."""
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return ""
    return str(x)


def write_table(fh, *columns):
    """CSV rows of the columns broadcast against each other (row-major over
    the broadcast shape), each value as '%.17g', which gives the bytes of
    fmt(); one formatting call per block of about TABLE_ROWS rows.  A column
    smaller than the broadcast shape (a plane checkpoint's axes) has each of
    its values formatted once, then repeated as a string.

    A full-size column whose bits read the same backwards along axis 0,
    along the last axis, or both (the field of a run symmetric about the
    origin) has each mirror pair formatted once, and the mirrored half
    repeats the strings of the first.  Bits decide, not values: 0.0 == -0.0,
    but they format as '0' and '-0'.  Only the rows still waiting for their
    mirror are kept, each joined into one string, so the memory held stays
    a small fraction of the table's."""
    shape = np.broadcast(*columns).shape
    if 0 in shape:  # an empty table has no rows to write
        return
    n, width = shape[0], math.prod(shape[1:])
    step = max(1, TABLE_ROWS // width)
    blocks, fields = [], []
    for c in map(np.asarray, columns):
        small = c.size < n * width
        if small:
            c = np.array(["%.17g" % v for v in c.ravel().tolist()],
                         dtype=object).reshape(c.shape)
        c = np.broadcast_to(c, shape).reshape(n, width)
        rows = cols = False
        if c.dtype == np.float64:
            bits = c.view(np.int64)
            rows = n > 1 and np.array_equal(bits, bits[::-1])
            cols = width > 1 and np.array_equal(bits, bits[:, ::-1])
        if rows or cols:
            blocks.append(_mirrored_blocks(c, step, rows, cols))
        else:
            blocks.append(_blocks(c, step))
        fields.append("%s" if small or rows or cols else "%.17g")
    row = ",".join(fields) + "\n"
    for block in zip(*blocks):
        block = np.stack(block, axis=-1)
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _blocks(c, step):
    """The values of an (n, m) array, step rows at a time."""
    for k in range(0, len(c), step):
        yield c[k:k + step].ravel()


def _mirrored_blocks(c, step, rows, cols):
    """The '%.17g' strings of an (n, m) array, step rows at a time, with each
    mirror pair formatted once: rows i and n-1-i if ``rows``, columns j and
    m-1-j if ``cols`` (the caller has checked that their bits agree)."""
    n, m = c.shape
    half = m - m // 2 if cols else m  # values formatted per row
    fresh = n - n // 2 if rows else n  # rows formatted
    pattern = ",".join(["%.17g"] * half) + "\n"
    waiting = []  # joined strings of the rows whose mirror is still to come
    for k in range(0, n, step):
        stop = min(k + step, n)
        lines = []
        if k < fresh:
            end = min(stop, fresh)
            values = c[k:end, :half].ravel().tolist()
            lines = ((pattern * (end - k)) % tuple(values)).split("\n")[:-1]
            if rows:
                waiting += lines[:max(0, n // 2 - k)]
        lines += [waiting.pop() for _ in range(max(k, fresh), stop)]
        if cols:
            block = []
            for line in lines:
                strings = line.split(",")
                block += strings + strings[m // 2 - 1::-1]
        else:
            block = ",".join(lines).split(",")
        yield np.array(block, dtype=object)


@dataclass
class ExperimentReport:
    study: str
    columns: tuple
    rows: list = field(default_factory=list)  # dicts keyed by column name
    fits: list = field(default_factory=list)  # {"model", "parameters", "residual"}
    checks: list = field(default_factory=list)  # {"name", "passed", "detail"}
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.metadata.setdefault("code_version", __version__)

    def add_row(self, **kw):
        self.rows.append(kw)

    def add_fit(self, model, parameters, residual):
        self.fits.append(
            {"model": model, "parameters": tuple(parameters), "residual": residual}
        )

    def add_check(self, name, passed, detail=""):
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def passed(self):
        return all(c["passed"] for c in self.checks)

    def summary_lines(self):
        for c in self.checks:
            status = "PASS" if c["passed"] else "FAIL"
            detail = f" ({c['detail']})" if c["detail"] else ""
            yield f"[{status}] {self.study}: {c['name']}{detail}"

    def write_csv(self, path):
        """Deterministic report CSV: header comments, the row table, then
        fit and check lines."""
        with open(path, "w") as fh:
            fh.write(f"# study={self.study}\n")
            fh.write(f"# config_hash={self.metadata.get('config_hash', '')}\n")
            fh.write(f"# code_version={self.metadata['code_version']}\n")
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(fmt(row.get(c)) for c in self.columns) + "\n")
            for f in self.fits:
                pars = ";".join(fmt(p) for p in f["parameters"])
                fh.write(
                    f"# fit model={f['model']} parameters={pars} "
                    f"residual={fmt(f['residual'])}\n"
                )
            for c in self.checks:
                fh.write(
                    f"# check name={c['name']} passed={c['passed']}"
                    + (f" detail={c['detail']}" if c["detail"] else "")
                    + "\n"
                )
