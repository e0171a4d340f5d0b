"""The pinned outputs of the `patrolgame` command line and of the demos.

Every CLI and demo output whose bytes are frozen is held here, once. `INPUTS`
writes the seeded networks (and one attack file) into a work directory,
beside copies of the demo data files `DEMO_DATA_FILES`; each row of `ROWS`
(the rows of `GROUPS`, in order) then runs one command there, or one demo,
and checks its exit code and what the row names:

- `sha`: the SHA-256 of its stdout (key "stdout") or of a file it wrote;
- `line`: a line its stdout holds exactly, `prefix`: how its stdout starts;
- `stderr`: the whole of its stderr, one line;
- `absent`: a file it must not write.

A row that exits nonzero must also print nothing on stdout. Rows run in
order: `simulate` reads the files that earlier `attack` and `patrol` rows
wrote.

Two callers run the table. `test_cli.py` calls `cli.main` in process and
runs the demos through `runpy`, one test per group of `GROUPS`;

    python tests/cli_table.py

runs it through the installed `patrolgame` entry point and `python
demos/<name>.py`, one process per row; CI runs it a second time under
`PYTHONUTF8=0 LC_ALL=C`, an ASCII locale, where the `utf8.net` row checks
that files are read and written as UTF-8. Both print each row's output and
list the checks that failed, and both fail on a demo that no row runs. To
pin a new output, add its input to `INPUTS` if it needs one, and a row to a
group of `GROUPS`; a deliberate
output change edits its digest here and nowhere else.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import runpy
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

from patrolgame import Network, complete_network, format_network
from patrolgame.cli import main

DEMOS = Path(__file__).resolve().parents[1] / "demos"
DEMO_DATA_FILES = ("sample_tree.net", "unit_k4.net")
ECHO_LINES = 20  # of each row's output, stdout then stderr

# the arc lengths of the benchmark's random trees (perfbench/inputs.py)
BENCH_LENGTHS = (F(1, 2), F(1), F(3, 2), F(2), F(1, 4), F(3), F(5, 2))


def _k6(arc_id):
    # rational lengths on integer scale D = 6, arc ids named by `arc_id`
    k6 = complete_network(6)
    return format_network(Network(k6.nodes, [(arc_id(k, a), a.u, a.v, F(1 + (7 * k) % 11, 1 + k % 3))
                                             for k, a in enumerate(k6.arcs)]))


def _zrational(n):
    # seeded rational lengths; arc ids from z99 down sort against node-index order
    rng = random.Random(n)
    base = complete_network(n)
    return format_network(Network(base.nodes, [(f"z{99 - k}", a.u, a.v, F(rng.randint(1, 16), rng.choice([1, 2, 3, 4])))
                                               for k, a in enumerate(base.arcs)]))


def _big_tree():
    # a seeded 2,000-node random-attachment tree
    rng = random.Random(2000)
    nodes = [f"n{i}" for i in range(2000)]
    return format_network(Network(nodes, [(f"e{i:04d}", nodes[rng.randrange(i)], nodes[i], rng.choice(BENCH_LENGTHS))
                                          for i in range(1, 2000)]))


INPUTS = {
    "k8.net": lambda: format_network(complete_network(8)),
    "k10.net": lambda: format_network(complete_network(10)),
    "k6z.net": lambda: _k6(lambda k, a: f"z{99 - k}"),
    "k6.net": lambda: _k6(lambda k, a: a.id),
    "k10z.net": lambda: _zrational(10),
    "k12z.net": lambda: _zrational(12),
    "big.net": _big_tree,
    "negative.attack": lambda: "attack\ntemporal fixed -1\natom node:L3 1\n",
    # a star whose centre is a non-ASCII node name, written as UTF-8
    "utf8.net": lambda: format_network(Network(["é", "a", "b", "c"], [(f"e{x}", "é", x, 1) for x in "abc"])),
}


@dataclass(frozen=True)
class Row:
    run: str  # the argv after `patrolgame`, split on spaces, or a demo's file name
    exit: int = 0
    sha: dict = field(default_factory=dict)
    line: str | None = None
    prefix: str | None = None
    stderr: str | None = None
    absent: str | None = None


SIMULATE = "simulate sample_tree.net --patrol tree.patrol --attack tree.attack --alpha 4"

# the rows, in the order they run, in named groups; `test_cli.py` runs each
# group as a test of its own, so a row reads files only from earlier rows of
# its own group
GROUPS = {"complete": (
    # complete networks: enumeration counts and files; the K6z arc ids sort
    # against node-index order, so its factor order rests on the ids' keys
    Row("factorize k8.net --enumerate -o k8.fact", line="count=6240",
        sha={"k8.fact": "29b9eb693f959fe063a2cb6c5b26ab7cfc01be43863fed7d371ea94b83c58517"}),
    Row("factorize k6z.net --enumerate -o k6z.fact", line="count=6",
        sha={"k6z.fact": "3e221b6975752208b38f05b02a8cf831f001346d4a62ce212559d0eed197d80f"}),
    # the heuristic's best factorizations of seeded rational K10 and K12
    Row("factorize k10z.net --best --heuristic -o k10z.fact", prefix="delta=",
        sha={"k10z.fact": "ca86e3e79f121ef7fc6327bb62d06fde9c1f7eb1d18c831cb6d4e9493909a17c"}),
    Row("factorize k12z.net --best --heuristic -o k12z.fact", prefix="delta=",
        sha={"k12z.fact": "f993dbf61c86acd046204a2e15327d68d721d11ef48681ea04ec1f1e3e32f14d"}),
    # certified best factorizations and their tour mixtures
    Row("factorize unit_k4.net --best",
        sha={"stdout": "8572f1b6ced55e98104f165f26729eb975bab1b26d4c0e41a897dcb26f829901"}),
    Row("patrol unit_k4.net --alpha 2 --kind complete --best -o k4.patrol",
        sha={"k4.patrol": "ea570a84c65a48a125819c2034504b5cd3eb8bd5dc40305eb2ef95e565ca1b95"}),
    Row("factorize k6.net --best -o k6.fact",
        sha={"k6.fact": "b5de1d390a604b25f38748818ab72e97a10a1a1b82dabe5c7b150cec5732834b"}),
    Row("patrol k6.net --alpha 4 --kind complete --factorization k6.fact -o k6.patrol",
        sha={"k6.patrol": "7a3fd02ed7d42cce4c800200d6fecf24003ed9bf2827b505910878aeeca4a819"}),
    Row("factorize k8.net --best -o k8.best",
        sha={"k8.best": "243eb05b655dc5d5ae1acd1f6e1b3c3053efc59eb3aaa3e3207f8faa56ee99a8"}),
    Row("patrol k8.net --alpha 4 --kind factor --factorization k8.best -o k8.factor.patrol", line="tours=7",
        sha={"k8.factor.patrol": "fa5b7e9245d0a5dc185d57efbd9e7c33c12c24e4b5d212942e0c5ce3a2582904"}),
    # --best certifies only the factorization it finds itself: a usage error
    Row("patrol k8.net --alpha 4 --kind complete --best --factorization k8.best", exit=2),
), "guard": (
    # enumeration refuses more than 8 nodes, and writes no file
    Row("factorize k10.net --enumerate -o k10.fact", exit=3,
        stderr="error: enumeration guarded to <= 8 nodes, got 10", absent="k10.fact"),
), "tree": (
    # the demo tree: reports at alpha 4, at 7/3 (whose thirds widen the
    # integer scale) and at 8 (its critical duration: a single-point core);
    # the attack and E-patrol files, the one at 7/3 on integer scale 6
    Row("decompose sample_tree.net --alpha 4",
        sha={"stdout": "d468bac4cc36323e50e226b04af050354b57a7f8de6522029bb2261be4186d13"}),
    Row("decompose sample_tree.net --alpha 7/3",
        sha={"stdout": "d88de081d19e7c9dd128ae83ff6132b8c9c82471eedb10eb4f9efb1950a20088"}),
    Row("decompose sample_tree.net --alpha 8",
        sha={"stdout": "1fe241ed2d5a7addc412ba1a54341b430b2dee746315abe85733f5a8fc45acc2"}),
    Row("attack sample_tree.net --alpha 4 -o tree.attack",
        sha={"tree.attack": "d7720f1b3095f3693d3fd5bd06b50e3786a85eed9bac5cc07f76cbbd059fe3a4"}),
    Row("patrol sample_tree.net --alpha 4 --kind e -o tree.patrol",
        sha={"tree.patrol": "1b3b71d29d2d0c58994e96ad2f0e209b09eacf57e613cc1372566cbfbd43df42"}),
    Row("patrol sample_tree.net --alpha 7/3 --kind e -o tree73.patrol",
        sha={"tree73.patrol": "00129e9f974e08c0ec688db55d85f39fe105ff363e60e520dba2687c75cf7275"}),
    Row("patrol unit_k4.net --alpha -3 --kind complete", exit=1,
        stderr="error: attack duration must be nonnegative"),
    # the tree check comes before the duration's, whose check warns on K4
    Row("patrol unit_k4.net --alpha 1 --kind e", exit=1, stderr="error: network is not a tree"),
    # the E-patrol reads no factorization: either flag is a usage error
    Row("patrol sample_tree.net --alpha 4 --kind e --best", exit=2),
    # an unwritable -o prints no stdout line, not even the result lines before it
    Row("attack sample_tree.net --alpha 4 -o missing/x.attack", exit=1,
        stderr="error: no such file: missing/x.attack"),
    # files are UTF-8 in and out, whatever the locale
    Row("decompose utf8.net --alpha 3 -o utf8.report",
        sha={"utf8.report": "f0e6d82aa57245ae3f6df80ce867e8b88ea3d1b3c279db78b2de41af3efa1801"}),
    # the E-patrol against the attack: exact, grid, and Monte Carlo at
    # 200,003 trials (four chunks, the last partial) on one and two threads;
    # the manifest lines hold input digests, not paths
    Row(f"{SIMULATE} --method exact",
        sha={"stdout": "4e5b9f30baf685203690a8ae5c76147ab7aebc064c6d16b8fbf2a7f117fcc040"}),
    Row(f"{SIMULATE} --method grid",
        sha={"stdout": "0dc525c69fa9d11e0a8b38393c0c3cd69811b5e8d30091b463efba52d5067dad"}),
    Row(f"{SIMULATE} --method mc --trials 200003 --seed 7 --jobs 1",
        sha={"stdout": "f322105b1d63faac2554c59a1924a4743b0d525ff57c2ea62973ba7fde4daffa"}),
    Row(f"{SIMULATE} --method mc --trials 200003 --seed 7 --jobs 2",
        sha={"stdout": "f0f8ff7beee82639790342823d92ab0bf75a65e3cc32fea9e596336baadf16e0"}),
    Row("simulate sample_tree.net --patrol tree.patrol --attack negative.attack --alpha 4 --method exact", exit=1,
        stderr="error: line 2: attack start time must be nonnegative"),
    # a grid of more cells than the size guard admits is refused before any
    # cell is built, by the grid method and by the exact method's fallback
    *(Row(f"{SIMULATE} --method {method} --grid-step 1/{10 ** 30}", exit=3,
          stderr=f"error: grid of {3 * 10 ** 30} cells at step 1/{10 ** 30} exceeds the limit of 2097152")
      for method in ("grid", "exact")),
), "large_tree": (
    # the 2,000-node tree at alpha 7/3 (thirds widen its scale of quarters)
    # and near half its critical duration 1878
    Row("decompose big.net --alpha 7/3",
        sha={"stdout": "a8a9ffdb173c7c7c70670288562903247e41075b7679f9aa89e7f121d299bac8"}),
    Row("attack big.net --alpha 7/3 -o big73.attack",
        sha={"big73.attack": "4ca263c4abf2368a57053d7daeddbb296d8e9eab77a96164204ad4aadfeb8630"}),
    Row("patrol big.net --alpha 7/3 --kind e -o big73.patrol",
        sha={"big73.patrol": "e6d188b5365b3440e8f9684b80297d0caa5ec71326e0078bc744aaf402d25133"}),
    Row("decompose big.net --alpha 939",
        sha={"stdout": "975853b9018ef2ed28b70ceeed22a36fda53d5eec778a73f7be36f106b0a628c"}),
    Row("attack big.net --alpha 939 -o big939.attack",
        sha={"big939.attack": "9df0af33f624a9a45c9a7af80b35a1a8e3ccfbd958f75e632b5da88e8f040f9c"}),
    Row("patrol big.net --alpha 939 --kind e -o big939.patrol",
        sha={"big939.patrol": "4e1dd517aff196237c7a040cc1fc41cff7d95c385162416f7f8327c615554557"}),
    # Monte Carlo against both attacks on two threads: at 7/3 the 1,006
    # atoms and 1,564 segments make many small (walk, entry) groups per
    # chunk, and many arc steps cover a segment only in part
    Row("simulate big.net --patrol big939.patrol --attack big939.attack --alpha 939 --method mc "
        "--trials 200003 --seed 7 --jobs 2",
        sha={"stdout": "bcfdc401b68993e64ae02278f3a9e8c68df4560e30ff052de4d92d7a723f920a"}),
    Row("simulate big.net --patrol big73.patrol --attack big73.attack --alpha 7/3 --method mc "
        "--trials 200003 --seed 7 --jobs 2",
        sha={"stdout": "b61ade0837deec0cc5f9a24a345c1e165b0bad4ccfd1ff733743e953da76c3e4"}),
), "demo": (
    # the demos, Monte Carlo included, are deterministic; demo 05's branch
    # and bound over the 8-step K4 walks keeps its best and its walk count
    Row("01_networks_and_walks.py",
        sha={"stdout": "12753c2b01f31468316b371364be6bb5824f6b53f6bf4cd41b4d17b697fcd9f4"}),
    Row("02_subtree_decomposition.py",
        sha={"stdout": "27141a079e6e4c4d4834c5ca65c3437853df6b0d300bc28d25a05d0e9c8ba4c7"}),
    Row("03_tree_attack.py",
        sha={"stdout": "e1759a0d476220b4be1ca06ce3ddf552e0cc8c626d45d6779cffb113f6842be5"}),
    Row("04_extremity_patrolling.py",
        sha={"stdout": "e3601fa098cd1e9235c73dec5ca422ae69db37118523897cca87eb0343858755"}),
    Row("05_complete_networks.py",
        line="best interception found: 19/24 < alpha/mu = 5/6 (margin 1/24, 393640 walks)",
        sha={"stdout": "73ae316e55976ddcdd3c521353a2953cac5d138d053d7a9e35df2620169b0e19"}),
    Row("06_monte_carlo.py",
        sha={"stdout": "706ad5bdfeecb74c70288879724f1739324aedd7e18dc88283468cf202a172c5"}),
)}
ROWS = tuple(row for rows in GROUPS.values() for row in rows)


def in_process(row: Row) -> tuple[object, bytes, bytes]:
    """Run a row through `cli.main`, or a demo through `runpy`, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if row.run.endswith(".py"):
                runpy.run_path(str(DEMOS / row.run), run_name="__main__")
                code = 0
            else:
                code = main(row.run.split())
        except SystemExit as e:  # argparse exits 2 on a usage error
            code = e.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def entry_point(row: Row) -> tuple[object, bytes, bytes]:
    """Run a row through the installed `patrolgame` entry point, or a demo
    through `python`, in a process of its own."""
    argv = [sys.executable, str(DEMOS / row.run)] if row.run.endswith(".py") else ["patrolgame", *row.run.split()]
    done = subprocess.run(argv, capture_output=True)
    return done.returncode, done.stdout, done.stderr


def _check(row: Row, code, out: bytes, err: bytes) -> list[str]:
    """What the row's run got wrong, read in the current directory."""
    text = out.decode(errors="replace")
    bad = [f"exit code {code}, not {row.exit}"] * (code != row.exit)
    bad += ["stdout not empty"] * (row.exit != 0 and out != b"")
    bad += [f"no stdout line {row.line!r}"] * (row.line is not None and row.line not in text.splitlines())
    bad += [f"stdout does not start with {row.prefix!r}"] * (row.prefix is not None and not text.startswith(row.prefix))
    bad += [f"stderr is not {row.stderr!r}"] * (row.stderr is not None and err != f"{row.stderr}\n".encode())
    bad += [f"wrote {row.absent}"] * (row.absent is not None and Path(row.absent).exists())
    for name, digest in row.sha.items():
        data = out if name == "stdout" else Path(name).read_bytes() if Path(name).is_file() else None
        got = "none (no file)" if data is None else hashlib.sha256(data).hexdigest()
        bad += [f"{name} has SHA-256 {got}, not {digest}"] * (got != digest)
    return [f"{row.run}: {what}" for what in bad]


def unpinned_demos() -> list[str]:
    """A failure for each demo that no row runs: every demo is pinned."""
    pinned = {row.run for row in ROWS}
    return [f"{p.name}: no row runs this demo" for p in sorted(DEMOS.glob("*.py")) if p.name not in pinned]


def run(execute, workdir, rows=ROWS) -> list[str]:
    """Write the inputs into `workdir`, run `rows` (by default every row)
    there with `execute`, echo each row's output, and return the checks that
    failed."""
    workdir = Path(workdir)
    for name, make in INPUTS.items():
        (workdir / name).write_text(make(), encoding="utf-8")
    for name in DEMO_DATA_FILES:
        shutil.copyfile(DEMOS / "data" / name, workdir / name)
    failed = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for row in rows:
            code, out, err = execute(row)
            lines = (out + err).decode(errors="replace").splitlines()
            print(f"== {row.run}", *lines[:ECHO_LINES], sep="\n")
            if len(lines) > ECHO_LINES:
                print(f"... {len(lines) - ECHO_LINES} more lines")
            failed += _check(row, code, out, err)
    finally:
        os.chdir(cwd)
    return failed


if __name__ == "__main__":
    if shutil.which("patrolgame") is None:
        sys.exit("error: no `patrolgame` command on PATH; install the package with `pip install -e .`")
    with tempfile.TemporaryDirectory() as tmp:
        failures = unpinned_demos() + run(entry_point, tmp)
    print(*(["FAILED:"] + failures if failures else ["all rows pass"]), sep="\n")
    sys.exit(1 if failures else 0)
