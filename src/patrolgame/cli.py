"""Command-line front end.

Every run prints a manifest line (command, input digests, parameters, seed)
so identical invocations are reproducible byte for byte; all randomness flows
from --seed, which defaults to 0 and never falls back to the clock. Each input
is read once, and the manifest digests the bytes parsed, even where `-o`
overwrites that file. Files are UTF-8 in and out, whatever the locale. Stdout
is held until the command succeeds: a failing one prints only an `error:` line.

Exit codes: 0 success, 1 validation failure or an unreadable or unwritable
file, 2 usage error (among them `patrol --kind e` with `--factorization` or
`--best`), 3 size-guard refusal (among them a `simulate --method grid` or
`exact` grid of more than 2,097,152 cells, counted as ceil(measure / step)
per segment at `--grid-step` before any cell is built).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from pathlib import Path

from . import serialize
from .decomposition import critical_alpha, local_root_of_tree, subtree_decomposition
from .engine import _duration, evaluate
from .errors import FactorizationError, FormatError, SizeGuardError, ValidationError
from .factorization import (
    Factorization,
    best_one_factorization,
    enumerate_one_factorizations,
    round_robin_one_factorization,
)
from .network import parse_network, parse_rational
from .strategies import (
    complete_patrolling,
    e_patrolling,
    factor_patrolling,
    game_value_tree,
    tree_attack_strategy,
)


def _read(path: str, name: str, inputs: list) -> str:
    """The text of an input file, read once: the SHA-256 of its bytes goes
    to `inputs` under `name`, for the manifest."""
    data = Path(path).read_bytes()
    inputs.append((name, hashlib.sha256(data).hexdigest()))
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"not UTF-8 text: {path}") from None


def _emit(text: str, out: str | None, printer) -> tuple[str, ...]:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        return (out,)
    printer(text.rstrip("\n"))
    return ()


# A command reads its inputs through `_read`, hands its stdout lines to
# `printer`, and returns its manifest parameters and the files it wrote.

def cmd_decompose(args, printer, inputs):
    net = parse_network(_read(args.network, "net", inputs))
    alpha = parse_rational(args.alpha, "--alpha")
    dec = subtree_decomposition(net, alpha)
    report = serialize.write_decomposition_report(
        net, dec, critical_alpha(net), local_root_of_tree(net), game_value_tree(net, alpha))
    return [("alpha", alpha)], _emit(report, args.output, printer)


def cmd_attack(args, printer, inputs):
    net = parse_network(_read(args.network, "net", inputs))
    alpha = parse_rational(args.alpha, "--alpha")
    eps = parse_rational(args.epsilon, "--epsilon") if args.epsilon else None
    horizon = parse_rational(args.horizon, "--horizon") if args.horizon else None
    strat = tree_attack_strategy(net, alpha, horizon=horizon, epsilon=eps)
    printer(f"T={serialize.fmt_frac(strat.temporal.value)}")
    outputs = _emit(serialize.write_attack(strat), args.output, printer)
    params = [("alpha", alpha), ("T", strat.temporal.value)]
    if eps is not None:
        params.append(("epsilon", eps))
    return params, outputs


def cmd_patrol(args, printer, inputs):
    net = parse_network(_read(args.network, "net", inputs))
    alpha = _duration(parse_rational(args.alpha, "--alpha"))
    if args.kind == "e":
        strat = e_patrolling(net, alpha)
        printer(f"period={serialize.fmt_frac(strat.components[0][0].duration)}")
    else:
        fact: Factorization | None = None
        if args.factorization:
            fact = serialize.parse_factorization(net, _read(args.factorization, "factorization", inputs))
        if args.kind == "complete":
            if fact is None:
                fact = best_one_factorization(net) if args.best else round_robin_one_factorization(net)
            strat = complete_patrolling(net, fact)
            delta = fact.delta
            mu = net.total_length
            label = "delta_star" if args.best else "delta"
            printer(f"{label}={serialize.fmt_frac(delta)}")
            printer(f"valid-alpha<={serialize.fmt_frac(mu - delta)}")
            if alpha > mu - delta:
                printer(f"note: duration {alpha} above the validated range")
        else:
            if fact is None:
                raise ValidationError("kind 'factor' requires --factorization")
            strat = factor_patrolling(net, fact)
            printer(f"tours={len(strat.components)}")
    return [("alpha", alpha), ("kind", args.kind)], _emit(serialize.write_patrol(strat), args.output, printer)


def cmd_simulate(args, printer, inputs):
    if args.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
    if args.jobs <= 0:
        raise ValidationError(f"--jobs must be positive, got {args.jobs}")
    if args.trials <= 0:
        raise ValidationError(f"--trials must be positive, got {args.trials}")
    net = parse_network(_read(args.network, "net", inputs))
    patrol = serialize.parse_patrol(net, _read(args.patrol, "patrol", inputs))
    attack = serialize.parse_attack(net, _read(args.attack, "attack", inputs))
    alpha = parse_rational(args.alpha, "--alpha")
    grid_step = parse_rational(args.grid_step, "--grid-step")
    result = evaluate(patrol, attack, alpha, method=args.method, trials=args.trials,
                      seed=args.seed, grid_step=grid_step, jobs=args.jobs)
    if result.notes:
        printer(f"note: {result.notes}")
    rows = serialize.RESULT_HEADER + "\n" + serialize.result_csv_row(result) + "\n"
    params = [("alpha", alpha), ("method", args.method), ("trials", args.trials),
              ("seed", args.seed), ("jobs", args.jobs)]
    return params, _emit(rows, args.output, printer)


def cmd_factorize(args, printer, inputs):
    net = parse_network(_read(args.network, "net", inputs))
    outputs: tuple[str, ...] = ()
    if args.best:
        fact = best_one_factorization(net, heuristic=args.heuristic)
        printer(f"delta_star={serialize.fmt_frac(fact.delta)}"
                if fact.certified else f"delta={serialize.fmt_frac(fact.delta)} (uncertified)")
        outputs = _emit(serialize.write_factorization(fact), args.output, printer)
    else:
        count = 0
        chunks = []
        for fact in enumerate_one_factorizations(net):
            count += 1
            if args.output:
                chunks.append(serialize.write_factorization(fact))
        printer(f"count={count}")
        if args.output:
            outputs = _emit("".join(chunks), args.output, printer)
    return [("mode", "best" if args.best else "enumerate")], outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="patrolgame",
                                     description="Patrolling games on metric networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="extremity components, core and game value of a tree")
    p.add_argument("network")
    p.add_argument("--alpha", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("attack", help="construct the tree attack strategy")
    p.add_argument("network")
    p.add_argument("--alpha", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--horizon")
    group.add_argument("--epsilon")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("patrol", help="construct a patrolling strategy")
    p.add_argument("network")
    p.add_argument("--alpha", required=True)
    p.add_argument("--kind", choices=["e", "complete", "factor"], required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--factorization")
    group.add_argument("--best", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_patrol)

    p = sub.add_parser("simulate", help="evaluate a patrol against an attack")
    p.add_argument("network")
    p.add_argument("--patrol", required=True)
    p.add_argument("--attack", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--method", choices=["exact", "grid", "mc"], default="exact")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-step", default="1/8")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("factorize", help="enumerate or optimize 1-factorizations")
    p.add_argument("network")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--enumerate", action="store_true")
    group.add_argument("--best", action="store_true")
    p.add_argument("--heuristic", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_factorize)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: building one costs
    about a millisecond (argparse looks up its message catalogs), and a
    parser holds nothing of the arguments it parses."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "factorize" and args.heuristic and not args.best:
        parser.error("factorize: argument --heuristic: needs --best")
    if args.command == "patrol" and args.kind == "e" and (args.factorization or args.best):
        parser.error("patrol: argument --kind e: takes neither --factorization nor --best")
    held: list[str] = []
    inputs: list[tuple[str, str]] = []
    try:
        params, outputs = args.func(args, held.append, inputs)
        ins = " ".join(f"{name}=sha256:{digest[:16]}" for name, digest in inputs)
        pars = " ".join(f"{k}={v}" for k, v in params)
        held.append(f"manifest command={args.command} {ins} {pars} outputs={','.join(outputs) or '-'}")
        # one write: a stdout that cannot encode a line gets none of them
        print("\n".join(held))
    except SizeGuardError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValidationError, FormatError, FactorizationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except UnicodeEncodeError as e:
        print(f"error: stdout cannot encode {e.object[e.start:e.end]!r} as {e.encoding}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: no such file: {e.filename}", file=sys.stderr)
        return 1
    except OSError as e:
        where = "" if e.filename is None else f": {e.filename}"  # a closed stdout has no file name
        print(f"error: {(e.strerror or str(e)).lower()}{where}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
