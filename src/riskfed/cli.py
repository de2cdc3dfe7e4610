"""Experiment entry point: config parsing, dispatch, artifact outputs.

Configs are flat ``key = value`` text (one per line; ``#`` starts a
comment at the start of a line or after whitespace, so ``a#b`` in a path
is kept). Unknown keys are rejected so typos cannot silently fall back
to defaults. Every successful run directory contains exactly four
files: resolved_config.txt, metrics.csv, weights.csv, partition.csv; it
is written under a hidden name and renamed into place, so a failed write
leaves no run directory.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import sys
from contextlib import contextmanager, suppress
from dataclasses import MISSING
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ExperimentError
from .federation import (CONFIG_SCHEMA, ExperimentConfig, VALUE_TYPES,
                         plan_clients, run_experiment)
from .metrics import write_metrics_csv
from .partition import write_partition_csv

_COMMENT = re.compile(r"(^|\s)#.*")


def parse_config(path) -> ExperimentConfig:
    """Parse a flat key=value config file into an ExperimentConfig, skipping
    a UTF-8 byte-order mark; a file that cannot be found, read or decoded is
    a ConfigurationError naming it, and a key out of range names its line."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigurationError(f"{path}: cannot read: {reason}") from None
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "workers":  # retired: read and ignored, so older configs parse
            continue
        if key not in CONFIG_SCHEMA:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
        attr = CONFIG_SCHEMA[key].name
        cast = VALUE_TYPES[attr]
        try:
            values[attr] = cast(value)
        except ValueError:
            raise ConfigurationError(
                f"{path}:{lineno}: {key} must be {cast.__name__}, got {value!r}"
            ) from None
        lines[key] = lineno

    missing = [key for key, f in CONFIG_SCHEMA.items()
               if f.default is MISSING and f.name not in values]
    if missing:
        raise ConfigurationError(f"{path}: missing required keys: {', '.join(missing)}")
    try:
        return ExperimentConfig(**values)
    except ConfigurationError as exc:
        key = str(exc).split(" ", 1)[0]
        where = f"{path}:{lines[key]}: " if key in lines else f"{path}: "
        raise ConfigurationError(where + str(exc)) from None


def resolved_config_text(config: ExperimentConfig) -> str:
    """Canonical flat rendering of a fully-defaulted config."""
    out = []
    for key, f in CONFIG_SCHEMA.items():
        value = getattr(config, f.name)
        text = repr(float(value)) if VALUE_TYPES[f.name] is float else value
        out.append(f"{key} = {text}")
    return "\n".join(out) + "\n"


def _write_weights_csv(weights, path) -> None:
    lines = ["index,value"]
    lines += [f"{i},{v:.17g}" for i, v in enumerate(weights)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _out_dir(out) -> Path:
    """--out as a path whose nearest existing part is a directory, so the
    artifacts can be written there once the work is done; a symlink is an
    existing part even if it leads nowhere, as mkdir finds it."""
    path = Path(out)
    try:
        existing = next(p for p in (path, *path.parents)
                        if p.is_symlink() or p.exists())
    except OSError as exc:  # such as a component longer than the system allows
        raise ConfigurationError(f"--out {out}: {exc.strerror or exc}") from None
    if not existing.is_dir():
        raise ConfigurationError(f"--out {out}: {existing} is not a directory")
    return path


@contextmanager
def _writing(out, target: Path):
    """A hidden sibling of target to write into, renamed to target at the
    end, so target is left whole or as it was. An OSError removes the
    sibling and is reported as a configuration error."""
    part = target.with_name(f".{target.name}.part")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        yield part
        os.replace(part, target)
    except OSError as exc:
        shutil.rmtree(part, ignore_errors=True)  # a run directory
        with suppress(OSError):  # a file
            part.unlink()
        reason = exc.strerror or exc
        raise ConfigurationError(f"--out {out}: cannot write: {reason}") from None


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    out = _out_dir(args.out)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    result = run_experiment(config)
    run_dir = out / f"{stamp}-seed{config.seed}"
    with _writing(args.out, run_dir) as part:
        part.mkdir()
        (part / "resolved_config.txt").write_text(resolved_config_text(config),
                                                  encoding="utf-8")
        write_metrics_csv(result.records, part / "metrics.csv")
        _write_weights_csv(result.final_weights, part / "weights.csv")
        write_partition_csv(result.plan, part / "partition.csv")
    print(run_dir)
    return 0


def _cmd_validate(args) -> int:
    config = parse_config(args.config)
    print(resolved_config_text(config), end="")
    return 0


def _cmd_partition_report(args) -> int:
    config = parse_config(args.config)
    out_dir = _out_dir(args.out) if args.out else None
    records, plan, _ = plan_clients(config)
    if out_dir is not None:
        with _writing(args.out, out_dir / "partition.csv") as part:
            write_partition_csv(plan, part)
    groups, group_of = np.unique(records.sectors, return_inverse=True)
    counts = np.bincount(plan.owner * groups.size + group_of,
                         minlength=plan.num_clients * groups.size)
    for client, row in enumerate(counts.reshape(-1, groups.size).tolist()):
        composition = ", ".join(
            f"sector {s}: {n}" for s, n in zip(groups.tolist(), row) if n)
        print(f"client {client}: {sum(row)} records ({composition})")
    print("partition valid")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="riskfed",
        description="Deterministic tail-risk-aware federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment and write artifacts")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(fn=_cmd_run)
    p_val = sub.add_parser("validate", help="check a config and print it resolved")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(fn=_cmd_validate)
    p_part = sub.add_parser(
        "partition-report", help="emit the partition CSV and per-client stats"
    )
    p_part.add_argument("--config", required=True)
    p_part.add_argument("--out", default="")
    p_part.set_defaults(fn=_cmd_partition_report)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # a config whose data cannot be allocated
        print(f"error: not enough memory for this config: {exc}", file=sys.stderr)
        return ConfigurationError.exit_code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
