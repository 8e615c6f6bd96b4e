#!/usr/bin/env python3
"""Run the CLI on the shipped configs and print a sha256 of every output file.

    PYTHONPATH=src python3 scripts/output_digest.py --out DIR [--no-converge]

Runs `coeffs`, `simulate-kinetic` and `simulate-spde` (each in full and
with --functionals-only) on every config in configs/, then `converge`,
`noise-stats` and `diagnose-generator` on configs/standard.json.
--no-converge leaves out `converge`, the one run at full ensemble size
(2,000 members per epsilon, most of the script's time).  Each run
writes into its own directory under DIR, next to its stdout, stderr and
exit code, and the script prints one `sha256  path` line per file, path
relative to DIR, sorted.  Two runs of one tree must print the same lines
(the outputs are a function of config and seed alone), and a change that
keeps every output byte prints the same lines as its parent.
"""

import argparse
import contextlib
import hashlib
import io
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


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", required=True, help="directory for the outputs (created)")
    p.add_argument("--no-converge", action="store_true", help="leave out `converge`")
    args = p.parse_args(argv)
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
    lines = []
    for base, _, files in os.walk(args.out):
        for fname in files:
            path = os.path.join(base, fname)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, args.out)}")
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
