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
    """Canonical hash of a (nested) parameter mapping; an array counts as
    the list of its values."""
    blob = json.dumps(params, sort_keys=True, default=lambda v: (
        v.tolist() if isinstance(v, np.ndarray) else repr(v)))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def fmt(x) -> str:
    """Deterministic float formatting (17 significant digits)."""
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return ""
    return str(x)


def write_table(fh, *columns):
    """CSV rows of the columns broadcast against each other (row-major over
    the broadcast shape), each value as '%.17g', which gives the bytes of
    fmt(); one block of about TABLE_ROWS rows at a time.  A column smaller
    than the broadcast shape (a plane checkpoint's axes) has each of its
    values formatted once, then repeated as a string; if it is the same in
    every row (the x1 axis), its strings go into the block's template once,
    with the separators.

    A full-size column whose bits read the same backwards along axis 0,
    along the last axis, or both (the field of a run symmetric about the
    origin) has each mirror pair formatted once, and the mirrored half
    repeats the strings of the first.  Bits decide, not values: 0.0 == -0.0,
    but they format as '0' and '-0'.  At most the first half of the rows is
    kept, each joined into one string, so the memory held stays a small
    fraction of the table's.

    A block is the template with the strings that change from row to row
    slotted in, joined once.  A table with a plain full-size column (a
    line checkpoint's x, a wave table) instead has the template's fields
    filled by one '%' per block, which formats that column's values as it
    fills them, faster than formatting them first."""
    shape = np.broadcast(*columns).shape
    if 0 in shape:  # an empty table has no rows to write
        return
    n, width = shape[0], math.prod(shape[1:])
    step = max(1, TABLE_ROWS // width)
    fixed, blocks, fields = [], [], []
    for c in map(np.asarray, columns):
        small = c.size < n * width
        if small:
            c = np.array(["%.17g" % v for v in c.ravel().tolist()],
                         dtype=object).reshape(c.shape)
        c = np.broadcast_to(c, shape).reshape(n, width)
        if small and (n == 1 or c.strides[0] == 0):
            fixed.append(c[0].tolist())
            continue
        rows = cols = False
        if c.dtype == np.float64:
            bits = c.view(np.int64)
            rows = n > 1 and np.array_equal(bits, bits[::-1])
            cols = width > 1 and np.array_equal(bits, bits[:, ::-1])
        fixed.append(None)
        if rows or cols:
            blocks.append(_mirrored_blocks(c, step, rows, cols))
        else:
            blocks.append(_blocks(c, step))
        fields.append("%s" if small or rows or cols else "%.17g")
    template, pattern = _row_template(fixed, width), None
    if "%.17g" in fields:  # the fixed text goes into one '%' pattern
        field = iter(fields * width)
        pattern = "".join(next(field) if p is None else p for p in template)
        template = [None] * (len(blocks) * width)
    stride = len(template) // width  # pieces per line
    slots = [i for i, p in enumerate(template[:stride]) if p is None]
    pieces = template * step
    for k, *block in zip(range(0, n, step), *blocks):
        count = min(step, n - k)  # rows in this block; the last may be short
        del pieces[count * len(template):]
        for i, b in zip(slots, block):
            pieces[i::stride] = b
        fh.write((pattern * count) % tuple(pieces) if pattern
                 else "".join(pieces))


def _row_template(fixed, width):
    """The pieces of one table row of lines: per line, None (a slot) for
    each column whose entry in ``fixed`` is None, and between the slots the
    text of the fixed columns' strings and the separators, merged.  Every
    line has the same layout."""
    template, text = [], ""
    for j in range(width):
        for k, strings in enumerate(fixed):
            if strings is None:
                if text:
                    template.append(text)
                template.append(None)
                text = ""
            else:
                text += strings[j]
            text += "," if k < len(fixed) - 1 else "\n"
        template.append(text)
        text = ""
    return template


def _blocks(c, step):
    """The values of an (n, m) array, step rows at a time, as lists."""
    for k in range(0, len(c), step):
        yield c[k:k + step].ravel().tolist()


def _mirrored_blocks(c, step, rows, cols):
    """The '%.17g' strings of an (n, m) array, step rows at a time, as
    lists, with each mirror pair formatted once: rows i and n-1-i if
    ``rows`` (the first half formatted, the second read back in reverse),
    columns j and m-1-j if ``cols`` (the caller has checked that their bits
    agree)."""
    n, m = c.shape
    half = m - m // 2 if cols else m  # values formatted per row
    fresh = n - n // 2 if rows else n  # rows formatted
    pattern = ",".join(["%.17g"] * half) + "\n"
    formatted = []  # with ``rows``, the strings of the rows formatted so far
    for k in range(0, n, step):
        stop = min(k + step, n)
        end = min(stop, fresh)  # rows past the first half format none
        values = c[k:end, :half].ravel().tolist()
        lines = ((pattern * (end - k)) % tuple(values)).split("\n")[:-1]
        if rows:
            formatted += lines
            lines = [formatted[min(i, n - 1 - i)] for i in range(k, stop)]
        if cols:
            block = []
            for line in lines:
                strings = line.split(",")
                block += strings + strings[m // 2 - 1::-1]
            yield block
        else:
            yield ",".join(lines).split(",")


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
