"""The Monte Carlo rows of the CLI table, checked against both reference scorers.

The `simulate` rows of `cli_table.py` that run Monte Carlo on two threads
(the demo tree and the two 2,000-node trees, 200,003 trials at seed 7) are
pinned by the digest of their output alone.  This script writes the table's
inputs into a temporary directory, runs there, in process, the rows of the
same group that write each row's patrol and attack files, and reads the
files as the row does.  It then compares the hit count of
`evaluate(..., method="mc")`, with the row's options, with the counts of
`oracles.mc_hits_reference` and `oracles.mc_hits_mod_reference`, prints the
three counts and exits 1 on any mismatch:

    PYTHONPATH=src python tests/mc_oracle_check.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

import cli_table
from oracles import mc_hits_mod_reference, mc_hits_reference
from patrolgame import evaluate, parse_network
from patrolgame.cli import build_parser
from patrolgame.network import parse_rational
from patrolgame.serialize import parse_attack, parse_patrol


def mc_rows():
    """(the rows before it in its group that write its patrol or attack
    file, the row, its parsed options) for each Monte Carlo row on two
    threads."""
    for rows in cli_table.GROUPS.values():
        for k, row in enumerate(rows):
            if " --method mc " in row.run and row.run.endswith(" --jobs 2"):
                args = build_parser().parse_args(row.run.split())
                writers = (f" -o {args.patrol}", f" -o {args.attack}")
                yield [r for r in rows[:k] if r.run.endswith(writers)], row, args


def check(workdir: Path) -> list[str]:
    """Check every Monte Carlo row in `workdir`; the mismatches, or a
    failure when the table has no such row."""
    failed = [] if any(mc_rows()) else ["the CLI table has no Monte Carlo row on two threads"]
    for before, row, args in mc_rows():
        with contextlib.redirect_stdout(io.StringIO()):
            failed += cli_table.run(cli_table.in_process, workdir, before)
        net = parse_network((workdir / args.network).read_text(encoding="utf-8"))
        patrol = parse_patrol(net, (workdir / args.patrol).read_text(encoding="utf-8"))
        attack = parse_attack(net, (workdir / args.attack).read_text(encoding="utf-8"))
        alpha = parse_rational(args.alpha, "--alpha")
        start = time.perf_counter()
        r = evaluate(patrol, attack, alpha, method="mc", trials=args.trials, seed=args.seed,
                     jobs=args.jobs)
        engine = round(r.probability * args.trials)
        reference = mc_hits_reference(patrol, attack, alpha, args.trials, args.seed)
        mod = mc_hits_mod_reference(patrol, attack, alpha, args.trials, args.seed)
        print(f"{row.run}\n  engine {engine}, per-trial reference {reference}, np.mod reference {mod}"
              f" ({time.perf_counter() - start:.1f} s)")
        if not engine == reference == mod:
            failed.append(f"{row.run}: engine {engine}, references {reference} and {mod}")
    return failed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        failures = check(Path(tmp))
    print(*(["FAILED:"] + failures if failures else ["every Monte Carlo row matches both references"]),
          sep="\n")
    sys.exit(1 if failures else 0)
