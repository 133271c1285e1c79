"""Experiment reports: per-epsilon rows, fits, checks, deterministic CSV.

The CSV is the source of truth and must be byte-identical across reruns of
the same configuration.
"""

from __future__ import annotations

import hashlib
import json
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
    its values formatted once, then repeated as a string."""
    size = np.broadcast(*columns).size
    cols, fields = [], []
    for c in map(np.asarray, columns):
        if c.size < size:
            c = np.array(["%.17g" % v for v in c.ravel().tolist()],
                         dtype=object).reshape(c.shape)
            fields.append("%s")
        else:
            fields.append("%.17g")
        cols.append(c)
    cols = np.broadcast_arrays(*cols)
    row = ",".join(fields) + "\n"
    step = max(1, TABLE_ROWS // cols[0][:1].size)
    for k in range(0, len(cols[0]), step):
        block = np.stack([c[k:k + step].ravel() for c in cols], axis=-1)
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


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
