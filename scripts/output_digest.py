#!/usr/bin/env python3
"""Run the CLI on the shipped configs and print a sha256 of every output file.

    PYTHONPATH=src python3 scripts/output_digest.py --out DIR [--no-converge] [--against OLD]

Runs `coeffs`, `simulate-kinetic` and `simulate-spde` (each in full and
with --functionals-only) on every config in configs/, then `converge`,
`noise-stats` and `diagnose-generator` on configs/standard.json.
--no-converge leaves out `converge`, the one run at full ensemble size
(2,000 members per epsilon, most of the script's time).  Each run
writes into its own directory under DIR, next to its stdout, stderr and
exit code, and the script prints one `sha256  path` line per file, path
relative to DIR, sorted.  Two runs of one tree must print the same lines
(the outputs are a function of config and seed alone), and a change that
keeps every output byte prints the same lines as its parent.  --against OLD
compares with the outputs of an earlier run under OLD: after the digests it
prints one line per file whose bytes differ from the same path under OLD,
with the largest elementwise relative difference |a - b| / max(|a|, |b|)
of a CSV's numeric cells.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from kindiff import cli  # noqa: E402

CONFIGS = ("standard.json", "scalar_mode.json", "martingale.json", "deterministic.json")


def runs(converge=True):
    """(name, config, argv) of every CLI run, argv without --config and --out."""
    for config in CONFIGS:
        stem = config[:-len(".json")]
        yield f"coeffs-{stem}", config, ["coeffs"]
        for command in ("simulate-kinetic", "simulate-spde"):
            yield f"{command}-{stem}", config, [command]
            yield f"{command}-{stem}-functionals", config, [command, "--functionals-only"]
    for command in ("converge",) * converge + ("noise-stats", "diagnose-generator"):
        yield f"{command}-standard", "standard.json", [command]


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cells(path):
    with open(path, newline="") as fh:
        return [cell for row in csv.reader(fh) for cell in row]


def compare(path, old_path):
    """How the file at path differs from old_path: the largest relative cell difference."""
    if not os.path.exists(old_path):
        return "missing under OLD"
    if not path.endswith(".csv"):
        return "differs"
    new, old = _cells(path), _cells(old_path)
    if len(new) != len(old):
        return f"cell count {len(old)} -> {len(new)}"
    worst = 0.0
    for a, b in zip(new, old):
        if a == b:
            continue
        try:
            a, b = float(a), float(b)
        except ValueError:
            return f"text cell {b!r} -> {a!r}"
        if a != b:  # a nan or inf against any other value counts as inf
            finite = math.isfinite(a) and math.isfinite(b)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)) if finite else math.inf)
    return f"max rel diff {worst:.3g}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", required=True, help="directory for the outputs (created)")
    p.add_argument("--no-converge", action="store_true", help="leave out `converge`")
    p.add_argument("--against", metavar="OLD",
                   help="an earlier run's --out directory to compare each file with")
    args = p.parse_args(argv)
    if args.against and not os.path.isdir(args.against):
        p.error(f"--against {args.against}: no such directory")
    for name, config, argv in runs(converge=not args.no_converge):
        out = os.path.join(args.out, name)
        os.makedirs(out, exist_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv + ["--config", os.path.join(ROOT, "configs", config),
                                    "--out", out])
        for stream, text in (("stdout.txt", stdout.getvalue()),
                             ("stderr.txt", stderr.getvalue()),
                             ("exit_code.txt", f"{code}\n")):
            with open(os.path.join(out, stream), "w") as fh:
                fh.write(text)
    digests = {}
    for base, _, files in os.walk(args.out):
        for fname in files:
            path = os.path.join(base, fname)
            digests[os.path.relpath(path, args.out)] = _digest(path)
    for rel in sorted(digests):
        print(f"{digests[rel]}  {rel}")
    if args.against:
        for rel in sorted(digests):
            old = os.path.join(args.against, rel)
            if not os.path.exists(old) or _digest(old) != digests[rel]:
                print(f"differs  {rel}  {compare(os.path.join(args.out, rel), old)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
