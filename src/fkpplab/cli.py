"""Command-line entry point.

Subcommands: wave, simulate, speed, thickness, generation, no-interface,
barriers.  Each takes --config <path>, --out <dir> and --svg.  COMMANDS
gives each the functions it calls; a command reads the config keys that
are parameters of its function (and [geometry] for a `body`), and any
other key is an error.  Each function is a study returning its report,
which names the tables it writes and the figures --svg adds, so main runs
every command alike.
Exit codes: 0 all checks pass, 1 usage/configuration error, 2 check
failure, 3 numerical error.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys

from .config import SCHEMA, body_from_config, load_config
from .errors import ConfigurationError, DomainError, NumericalError
from .studies import (
    run_algebraic_simulation,
    run_barrier_check,
    run_compact_simulation,
    run_generation_study,
    run_no_interface_study,
    run_speed_study,
    run_thickness_study,
    run_wave_study,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


# "section.key" of each schema key outside [geometry], by key (key names
# are unique across sections)
_ENTRIES = {key: f"{section}.{key}" for section, keys in SCHEMA.items()
            if section != "geometry" for key in keys}


def _reads(func) -> tuple:
    """The entries func reads, and whether [geometry] becomes its `body`
    (body_from_config reads the keys of the shape, config.SHAPE_KEYS)."""
    params = inspect.signature(func).parameters
    return {_ENTRIES[p] for p in params if p in _ENTRIES}, "body" in params


def _reading(command, cfg) -> tuple:
    """The (function, only) of command that reads cfg: the first whose
    [initial] variant (default compact) cfg matches."""
    variant = cfg.get("initial", {}).get("variant", "compact")
    readings = COMMANDS[command]
    for func, only in readings:
        if only.get("initial.variant", variant) == variant:
            return func, only
    accepted = " or ".join(only["initial.variant"] for _, only in readings)
    raise ConfigurationError(f"[initial] variant = {variant} is not read by "
                             f"this command (it reads only {accepted})")


def _kwargs(func, only, cfg) -> dict:
    """func's keyword arguments from cfg; a key it does not read, or reads at
    another value than `only` gives, and a required key missing are errors."""
    keys, body = _reads(func)
    kw = {}
    for section, values in cfg.items():
        for key, value in values.items():
            entry = f"{section}.{key}"
            if entry in keys:
                kw[key] = value
            elif entry in only:
                if value != only[entry]:
                    raise ConfigurationError(
                        f"[{section}] {key} = {value} is not read by this "
                        f"command (it reads only {only[entry]})")
            elif not (body and section == "geometry"):
                raise ConfigurationError(
                    f"[{section}] {key} is not read by this command")
    if body and "geometry" in cfg:
        kw["body"] = body_from_config(cfg)
    for p in inspect.signature(func).parameters.values():
        if p.default is p.empty and p.name not in kw:
            section, key = _ENTRIES[p.name].split(".")
            raise ConfigurationError(f"[{section}] {key} is required")
    return kw


_COMPACT = {"initial.variant": "compact"}

# command -> its readings (function, entries it accepts at one value only).
# A config is read by the first reading whose [initial] variant (default
# compact) it matches, and reads the schema keys that are parameters of
# its function.
COMMANDS = {
    "wave": [(run_wave_study, {})],
    "simulate": [(run_compact_simulation, _COMPACT),
                 (run_algebraic_simulation, {"initial.variant": "algebraic",
                                             "solver.mode": "radial"})],
    "speed": [(run_speed_study, _COMPACT)],
    "thickness": [(run_thickness_study, _COMPACT)],
    "generation": [(run_generation_study, _COMPACT)],
    "no-interface": [(run_no_interface_study, {})],
    "barriers": [(run_barrier_check, _COMPACT)],
}


def main(argv=None):
    parser = _Parser(prog="fkpplab",
                     description="Sharp-interface laboratory for the scaled "
                                 "Fisher-KPP equation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--svg", action="store_true", help="also emit SVG plots")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        func, only = _reading(args.command, cfg)
        report = func(**_kwargs(func, only, cfg))
        report.write_csv(os.path.join(args.out, "report.csv"))
        files = dict(report.metadata.get("tables", {}))
        if args.svg:
            files.update(report.metadata.get("figures", {}))
        for name, write in files.items():
            write(os.path.join(args.out, name))
        for line in report.summary_lines():
            print(line)
        print(f"report written to {os.path.join(args.out, 'report.csv')}")
        return 0 if report.passed else 2
    except (ConfigurationError, DomainError, MemoryError) as exc:
        # the message names the key, or (numpy's) the array that does not
        # fit in memory; the prefix names the command
        print(f"fkpplab {args.command}: configuration error: {exc}",
              file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"fkpplab {args.command}: numerical error: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
