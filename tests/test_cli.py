import hashlib
import io
import random
import runpy
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from patrolgame.cli import main
from patrolgame import Network, format_network, complete_network
from conftest import make_sample_tree

F = Fraction
DEMOS = Path(__file__).resolve().parents[1] / "demos"
DEMO_DATA = DEMOS / "data"


@pytest.fixture
def tree_file(tmp_path):
    p = tmp_path / "tree.net"
    p.write_text(format_network(make_sample_tree()))
    return str(p)


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.net"
    p.write_text(format_network(complete_network(4)))
    return str(p)


def test_decompose(tree_file, capsys):
    assert main(["decompose", tree_file, "--alpha", "4"]) == 0
    out = capsys.readouterr().out
    assert "lambda_e 7" in out
    assert "value 4/17" in out
    assert "manifest command=decompose" in out


def test_decompose_critical(tree_file, capsys):
    assert main(["decompose", tree_file, "--alpha", "8"]) == 0
    out = capsys.readouterr().out
    assert "local_root node:B" in out
    assert "value 2/5" in out
    assert "core measure=0" in out


def test_decompose_non_tree(k4_file, capsys):
    assert main(["decompose", k4_file, "--alpha", "2"]) == 1
    assert "not a tree" in capsys.readouterr().err


def test_attack_writes_file(tree_file, tmp_path, capsys):
    out_file = tmp_path / "attack.txt"
    assert main(["attack", tree_file, "--alpha", "4", "--epsilon", "1/20",
                 "-o", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "T=240" in out
    text = out_file.read_text()
    assert "atom node:L62 4/17" in text
    assert "uniform 3/17" in text


def test_attack_rejects_oversize_alpha(tree_file, capsys):
    assert main(["attack", tree_file, "--alpha", "21"]) == 1
    assert "exceeds" in capsys.readouterr().err


def test_patrol_e_kind(tree_file, tmp_path, capsys):
    out_file = tmp_path / "patrol.txt"
    assert main(["patrol", tree_file, "--alpha", "4", "--kind", "e", "-o", str(out_file)]) == 0
    assert "period=34" in capsys.readouterr().out
    assert out_file.read_text().startswith("patrol\nmix 1/2\n")


def test_patrol_complete(k4_file, capsys):
    assert main(["patrol", k4_file, "--alpha", "3", "--kind", "complete"]) == 0
    out = capsys.readouterr().out
    assert "delta=2" in out
    assert "valid-alpha<=4" in out
    assert out.count("mix 1/3") == 3


def test_patrol_complete_best_k8(tmp_path, capsys):
    k8 = tmp_path / "k8.net"
    k8.write_text(format_network(complete_network(8)))
    assert main(["patrol", str(k8), "--alpha", "3", "--kind", "complete", "--best"]) == 0
    assert "delta_star=4" in capsys.readouterr().out


def test_patrol_factor_requires_file(k4_file, capsys):
    assert main(["patrol", k4_file, "--alpha", "3", "--kind", "factor"]) == 1
    assert "requires --factorization" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["complete", "factor"])
def test_patrol_rejects_negative_alpha(k4_file, tmp_path, capsys, kind):
    # both tour mixtures are built whatever the duration, so the duration is
    # checked first; with the factorization file the factor kind needs
    fact_file = tmp_path / "k4.fact"
    assert main(["factorize", k4_file, "--best", "-o", str(fact_file)]) == 0
    assert main(["patrol", k4_file, "--alpha", "3", "--kind", kind, "--factorization", str(fact_file)]) == 0
    capsys.readouterr()
    assert main(["patrol", k4_file, "--alpha", "-3", "--kind", kind, "--factorization", str(fact_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: attack duration must be nonnegative\n"
    assert captured.out == ""


def test_patrol_e_rejects_negative_alpha(tree_file, capsys):
    assert main(["patrol", tree_file, "--alpha", "-3", "--kind", "e"]) == 1
    assert capsys.readouterr().err == "error: attack duration must be nonnegative\n"


def test_simulate_exact(k4_file, tmp_path, capsys):
    patrol_file = tmp_path / "p.txt"
    attack_file = tmp_path / "a.txt"
    assert main(["patrol", k4_file, "--alpha", "3", "--kind", "complete",
                 "-o", str(patrol_file)]) == 0
    attack_file.write_text(
        "attack\ntemporal fixed 0\nuniform 1 " + " ".join(
            f"{a}:0:1" for a in ("v1-v2", "v1-v3", "v1-v4", "v2-v3", "v2-v4", "v3-v4")) + "\n")
    assert main(["simulate", k4_file, "--patrol", str(patrol_file),
                 "--attack", str(attack_file), "--alpha", "3"]) == 0
    out = capsys.readouterr().out
    assert "grid,1/2," in out


def test_simulate_mc_seeded(tree_file, tmp_path, capsys):
    patrol_file = tmp_path / "p.txt"
    attack_file = tmp_path / "a.txt"
    main(["patrol", tree_file, "--alpha", "4", "--kind", "e", "-o", str(patrol_file)])
    main(["attack", tree_file, "--alpha", "4", "-o", str(attack_file)])
    capsys.readouterr()
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    for out in (out1, out2):
        assert main(["simulate", tree_file, "--patrol", str(patrol_file),
                     "--attack", str(attack_file), "--alpha", "4",
                     "--method", "mc", "--trials", "20000", "--seed", "7",
                     "-o", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    value = float(out1.read_text().splitlines()[1].split(",")[1])
    assert 0.21 < value < 0.26


def test_simulate_incompatible_files(tree_file, k4_file, tmp_path, capsys):
    patrol_file = tmp_path / "p.txt"
    attack_file = tmp_path / "a.txt"
    main(["patrol", k4_file, "--alpha", "3", "--kind", "complete", "-o", str(patrol_file)])
    main(["attack", tree_file, "--alpha", "4", "-o", str(attack_file)])
    capsys.readouterr()
    assert main(["simulate", k4_file, "--patrol", str(patrol_file),
                 "--attack", str(attack_file), "--alpha", "3"]) == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "--seed must be nonnegative"),
    ("--jobs", "0", "--jobs must be positive"),
    ("--jobs", "-2", "--jobs must be positive"),
    ("--seed", str(2 ** 128), "seed must be an integer in [0, 2**128)"),
])
def test_simulate_rejects_bad_seed_and_jobs(tree_file, tmp_path, capsys, flag, value, message):
    patrol_file = tmp_path / "p.txt"
    attack_file = tmp_path / "a.txt"
    main(["patrol", tree_file, "--alpha", "4", "--kind", "e", "-o", str(patrol_file)])
    main(["attack", tree_file, "--alpha", "4", "-o", str(attack_file)])
    capsys.readouterr()
    assert main(["simulate", tree_file, "--patrol", str(patrol_file), "--attack", str(attack_file),
                 "--alpha", "4", "--method", "mc", "--trials", "100", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert "manifest" not in captured.out


@pytest.mark.parametrize("method", ["exact", "grid", "mc"])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_simulate_rejects_nonpositive_trials(tree_file, tmp_path, capsys, method, trials):
    # every method checks --trials, although only Monte Carlo reads it
    patrol_file = tmp_path / "p.txt"
    attack_file = tmp_path / "a.txt"
    main(["patrol", tree_file, "--alpha", "4", "--kind", "e", "-o", str(patrol_file)])
    main(["attack", tree_file, "--alpha", "4", "-o", str(attack_file)])
    capsys.readouterr()
    assert main(["simulate", tree_file, "--patrol", str(patrol_file), "--attack", str(attack_file),
                 "--alpha", "4", "--method", method, "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --trials must be positive, got {trials}\n"
    assert captured.out == ""


@pytest.mark.parametrize("method", ["exact", "grid", "mc"])
def test_simulate_rejects_negative_alpha(tree_file, tmp_path, capsys, method):
    patrol_file = tmp_path / "p.txt"
    attack_file = tmp_path / "a.txt"
    main(["patrol", tree_file, "--alpha", "4", "--kind", "e", "-o", str(patrol_file)])
    main(["attack", tree_file, "--alpha", "4", "-o", str(attack_file)])
    capsys.readouterr()
    assert main(["simulate", tree_file, "--patrol", str(patrol_file), "--attack", str(attack_file),
                 "--alpha", "-1", "--method", method, "--trials", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: attack duration must be nonnegative\n"
    assert captured.out == ""


@pytest.mark.parametrize("mass", ["1/0", "abc"])
def test_simulate_bad_rational_in_attack_file(tree_file, tmp_path, capsys, mass):
    patrol_file = tmp_path / "p.txt"
    attack_file = tmp_path / "a.txt"
    main(["patrol", tree_file, "--alpha", "4", "--kind", "e", "-o", str(patrol_file)])
    attack_file.write_text(f"attack\ntemporal fixed 0\natom node:L3 {mass}\n")
    capsys.readouterr()
    assert main(["simulate", tree_file, "--patrol", str(patrol_file),
                 "--attack", str(attack_file), "--alpha", "4"]) == 1
    assert capsys.readouterr().err == f"error: line 3: bad mass {mass!r}\n"


@pytest.mark.parametrize("value", ["abc", "1/0"])
@pytest.mark.parametrize("flag", ["--alpha", "--grid-step"])
def test_simulate_bad_rational_flag(tree_file, tmp_path, capsys, flag, value):
    patrol_file = tmp_path / "p.txt"
    attack_file = tmp_path / "a.txt"
    main(["patrol", tree_file, "--alpha", "4", "--kind", "e", "-o", str(patrol_file)])
    main(["attack", tree_file, "--alpha", "4", "-o", str(attack_file)])
    capsys.readouterr()
    args = {"--alpha": "4", "--grid-step": "1/8", flag: value}
    assert main(["simulate", tree_file, "--patrol", str(patrol_file), "--attack", str(attack_file),
                 *(x for item in args.items() for x in item)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: bad {flag} {value!r}\n"
    assert "manifest" not in captured.out


@pytest.mark.parametrize("value", ["abc", "1/0"])
@pytest.mark.parametrize("argv", [
    ["decompose", "--alpha", "{}"],
    ["attack", "--alpha", "{}"],
    ["attack", "--alpha", "4", "--epsilon", "{}"],
    ["attack", "--alpha", "4", "--horizon", "{}"],
    ["patrol", "--alpha", "{}", "--kind", "e"],
])
def test_bad_rational_flag(tree_file, capsys, argv, value):
    flag = argv[argv.index("{}") - 1]
    argv = [argv[0], tree_file] + [value if a == "{}" else a for a in argv[1:]]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: bad {flag} {value!r}\n"
    assert "manifest" not in captured.out


def test_simulate_usage_error(tree_file):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", tree_file, "--alpha", "4"])
    assert exc.value.code == 2


def test_patrol_best_excludes_factorization(k4_file, tmp_path, capsys):
    # --best certifies only the factorization it finds itself
    fact_file = tmp_path / "k4.fact"
    assert main(["factorize", k4_file, "--best", "-o", str(fact_file)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["patrol", k4_file, "--alpha", "3", "--kind", "complete", "--best",
              "--factorization", str(fact_file)])
    assert exc.value.code == 2
    assert "delta_star" not in capsys.readouterr().out


def test_factorize_heuristic_needs_best(k4_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factorize", k4_file, "--enumerate", "--heuristic"])
    assert exc.value.code == 2
    assert "count=" not in capsys.readouterr().out


def test_network_file_error_names_its_line(tmp_path, capsys):
    net = tmp_path / "dup.net"
    net.write_text("node a\nnode b\narc x a b 1\narc x a b 2\n")
    assert main(["decompose", str(net), "--alpha", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 4: duplicate arc id 'x'\n"
    assert captured.out == ""


def test_factorize_counts(k4_file, tmp_path, capsys):
    assert main(["factorize", k4_file, "--enumerate"]) == 0
    assert "count=1" in capsys.readouterr().out
    k6 = tmp_path / "k6.net"
    k6.write_text(format_network(complete_network(6)))
    assert main(["factorize", str(k6), "--enumerate"]) == 0
    assert "count=6" in capsys.readouterr().out


def test_factorize_best(k4_file, capsys):
    assert main(["factorize", k4_file, "--best"]) == 0
    out = capsys.readouterr().out
    assert "delta_star=2" in out
    assert out.count("factor ") == 3


def test_complete_network_outputs_frozen(tmp_path, capsys):
    # the complete-network command outputs whose SHA-256 the console-script
    # smoke step of the CI workflow also checks, here through cli.main: the
    # unit K8 enumeration, certified and tour-mixture files, and the
    # heuristic's best factorizations of rational K10 and K12 networks
    def sha(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def write(name, net):
        path = tmp_path / name
        path.write_text(format_network(net))
        return str(path)

    k6 = complete_network(6)
    k6z = write("k6z.net", Network(k6.nodes, [(f"z{99 - k}", a.u, a.v, F(1 + (7 * k) % 11, 1 + k % 3))
                                              for k, a in enumerate(k6.arcs)]))
    k6 = write("k6.net", Network(k6.nodes, [(a.id, a.u, a.v, F(1 + (7 * k) % 11, 1 + k % 3))
                                            for k, a in enumerate(k6.arcs)]))
    k8 = write("k8.net", complete_network(8))

    def zrational(n):
        # seeded rational lengths; arc ids from z99 down sort against node-index order
        rng = random.Random(n)
        base = complete_network(n)
        arcs = [(f"z{99 - k}", a.u, a.v, F(rng.randint(1, 16), rng.choice([1, 2, 3, 4])))
                for k, a in enumerate(base.arcs)]
        return write(f"k{n}z.net", Network(base.nodes, arcs))

    out = {name: str(tmp_path / name) for name in ("k6z.fact", "k6.fact", "k6.patrol", "k8.best", "k8.patrol",
                                                   "k8.fact", "k10z.fact", "k12z.fact")}
    assert main(["factorize", k6z, "--enumerate", "-o", out["k6z.fact"]]) == 0
    assert "count=6" in capsys.readouterr().out.splitlines()
    assert main(["factorize", k8, "--enumerate", "-o", out["k8.fact"]]) == 0
    assert "count=6240" in capsys.readouterr().out.splitlines()
    for n in (10, 12):
        assert main(["factorize", zrational(n), "--best", "--heuristic", "-o", out[f"k{n}z.fact"]]) == 0
        assert capsys.readouterr().out.startswith("delta=")
    k4 = str(DEMO_DATA / "unit_k4.net")
    assert main(["factorize", k4, "--best"]) == 0
    k4_best = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert main(["factorize", k6, "--best", "-o", out["k6.fact"]]) == 0
    assert main(["patrol", k6, "--alpha", "4", "--kind", "complete",
                 "--factorization", out["k6.fact"], "-o", out["k6.patrol"]]) == 0
    assert main(["factorize", k8, "--best", "-o", out["k8.best"]]) == 0
    assert main(["patrol", k8, "--alpha", "4", "--kind", "factor",
                 "--factorization", out["k8.best"], "-o", out["k8.patrol"]]) == 0
    assert "tours=7" in capsys.readouterr().out.splitlines()
    assert k4_best == "8572f1b6ced55e98104f165f26729eb975bab1b26d4c0e41a897dcb26f829901"
    assert {name: sha(path) for name, path in out.items()} == {
        "k6z.fact": "3e221b6975752208b38f05b02a8cf831f001346d4a62ce212559d0eed197d80f",
        "k6.fact": "b5de1d390a604b25f38748818ab72e97a10a1a1b82dabe5c7b150cec5732834b",
        "k6.patrol": "7a3fd02ed7d42cce4c800200d6fecf24003ed9bf2827b505910878aeeca4a819",
        "k8.best": "243eb05b655dc5d5ae1acd1f6e1b3c3053efc59eb3aaa3e3207f8faa56ee99a8",
        "k8.patrol": "fa5b7e9245d0a5dc185d57efbd9e7c33c12c24e4b5d212942e0c5ce3a2582904",
        "k8.fact": "29b9eb693f959fe063a2cb6c5b26ab7cfc01be43863fed7d371ea94b83c58517",
        "k10z.fact": "ca86e3e79f121ef7fc6327bb62d06fde9c1f7eb1d18c831cb6d4e9493909a17c",
        "k12z.fact": "f993dbf61c86acd046204a2e15327d68d721d11ef48681ea04ec1f1e3e32f14d",
    }
    # the enumeration guard exits 3 with its line and writes no file
    k10 = write("k10.net", complete_network(10))
    assert main(["factorize", k10, "--enumerate", "-o", str(tmp_path / "k10.fact")]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: enumeration guarded to <= 8 nodes, got 10"]
    assert captured.out == "" and not (tmp_path / "k10.fact").exists()


def test_tree_outputs_frozen(tmp_path, capsys):
    # the rows of the CI workflow's tree and simulate console-script smoke
    # steps, here through cli.main: decompose reports and the attack and
    # E-patrol files on the demo tree, the exact, grid and seeded Monte
    # Carlo rows (whose manifest lines hold input digests, not paths), and
    # the two exit-1 lines
    tree = str(DEMO_DATA / "sample_tree.net")
    attack, patrol, patrol73 = (str(tmp_path / name) for name in ("tree.attack", "tree.patrol", "tree73.patrol"))
    stdout = {}
    for name, argv in (("tree.report", ["decompose", tree, "--alpha", "4"]),
                       ("tree73.report", ["decompose", tree, "--alpha", "7/3"]),
                       ("tree8.report", ["decompose", tree, "--alpha", "8"]),
                       (None, ["attack", tree, "--alpha", "4", "-o", attack]),
                       (None, ["patrol", tree, "--alpha", "4", "--kind", "e", "-o", patrol]),
                       (None, ["patrol", tree, "--alpha", "7/3", "--kind", "e", "-o", patrol73]),
                       ("sim.exact", ["simulate", tree, "--patrol", patrol, "--attack", attack, "--alpha", "4",
                                      "--method", "exact"]),
                       ("sim.grid", ["simulate", tree, "--patrol", patrol, "--attack", attack, "--alpha", "4",
                                     "--method", "grid"])) + tuple(
            (f"sim.mc.j{jobs}", ["simulate", tree, "--patrol", patrol, "--attack", attack, "--alpha", "4",
                                 "--method", "mc", "--trials", "200003", "--seed", "7", "--jobs", str(jobs)])
            for jobs in (1, 2)):
        assert main(argv) == 0
        out = capsys.readouterr().out
        if name:
            stdout[name] = hashlib.sha256(out.encode()).hexdigest()
    files = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
             for name, path in (("tree.attack", attack), ("tree.patrol", patrol), ("tree73.patrol", patrol73))}
    assert stdout | files == {
        "tree.report": "d468bac4cc36323e50e226b04af050354b57a7f8de6522029bb2261be4186d13",
        "tree.attack": "d7720f1b3095f3693d3fd5bd06b50e3786a85eed9bac5cc07f76cbbd059fe3a4",
        "tree.patrol": "1b3b71d29d2d0c58994e96ad2f0e209b09eacf57e613cc1372566cbfbd43df42",
        "tree73.report": "d88de081d19e7c9dd128ae83ff6132b8c9c82471eedb10eb4f9efb1950a20088",
        "tree8.report": "1fe241ed2d5a7addc412ba1a54341b430b2dee746315abe85733f5a8fc45acc2",
        "tree73.patrol": "00129e9f974e08c0ec688db55d85f39fe105ff363e60e520dba2687c75cf7275",
        "sim.exact": "4e5b9f30baf685203690a8ae5c76147ab7aebc064c6d16b8fbf2a7f117fcc040",
        "sim.grid": "0dc525c69fa9d11e0a8b38393c0c3cd69811b5e8d30091b463efba52d5067dad",
        "sim.mc.j1": "fead29762305ca04cc5cbd729df3ace5f456fbba0aa14b056cd17d6fdf2a30a2",
        "sim.mc.j2": "7f8c597a319e459ecca4fc053c075c41f0c0b3a6b346cb38fe5d4217349ea0ce",
    }
    negative = tmp_path / "negative.attack"
    negative.write_text("attack\ntemporal fixed -1\natom node:L3 1\n")
    for argv, line in (
            (["patrol", str(DEMO_DATA / "unit_k4.net"), "--alpha", "-3", "--kind", "complete"],
             "error: attack duration must be nonnegative"),
            (["simulate", tree, "--patrol", patrol, "--attack", str(negative), "--alpha", "4", "--method", "exact"],
             "error: line 2: attack start time must be nonnegative")):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert line in captured.err.splitlines() and captured.out == ""


# the arc lengths of the benchmark's random trees (perfbench/inputs.py)
BENCH_LENGTHS = (F(1, 2), F(1), F(3, 2), F(2), F(1, 4), F(3), F(5, 2))


def test_large_tree_outputs_frozen(tmp_path, capsys):
    # decompose, attack and E-patrol on a seeded 2,000-node random-attachment
    # tree, at alpha 7/3 (thirds widen the tree's scale of quarters) and near
    # half its critical duration 1878: the report's stdout and both files
    rng = random.Random(2000)
    nodes = [f"n{i}" for i in range(2000)]
    tree = tmp_path / "big.net"
    tree.write_text(format_network(Network(nodes, [(f"e{i:04d}", nodes[rng.randrange(i)], nodes[i],
                                                    rng.choice(BENCH_LENGTHS)) for i in range(1, 2000)])))
    got = {}
    for alpha in ("7/3", "939"):
        attack, patrol = tmp_path / f"{alpha[0]}.attack", tmp_path / f"{alpha[0]}.patrol"
        assert main(["decompose", str(tree), "--alpha", alpha]) == 0
        report = capsys.readouterr().out
        assert main(["attack", str(tree), "--alpha", alpha, "-o", str(attack)]) == 0
        assert main(["patrol", str(tree), "--alpha", alpha, "--kind", "e", "-o", str(patrol)]) == 0
        capsys.readouterr()
        got[alpha] = tuple(hashlib.sha256(b).hexdigest()
                           for b in (report.encode(), attack.read_bytes(), patrol.read_bytes()))
    assert got == {
        "7/3": ("a8a9ffdb173c7c7c70670288562903247e41075b7679f9aa89e7f121d299bac8",
                "4ca263c4abf2368a57053d7daeddbb296d8e9eab77a96164204ad4aadfeb8630",
                "e6d188b5365b3440e8f9684b80297d0caa5ec71326e0078bc744aaf402d25133"),
        "939": ("975853b9018ef2ed28b70ceeed22a36fda53d5eec778a73f7be36f106b0a628c",
                "9df0af33f624a9a45c9a7af80b35a1a8e3ccfbd958f75e632b5da88e8f040f9c",
                "4e1dd517aff196237c7a040cc1fc41cff7d95c385162416f7f8327c615554557"),
    }


def test_demo_outputs_frozen():
    # the stdout of each demo, whose SHA-256 the CI workflow's Demos step
    # also checks; the demos are deterministic, Monte Carlo included
    got = {}
    for demo in sorted(DEMOS.glob("*.py")):
        out = io.StringIO()
        with redirect_stdout(out):
            runpy.run_path(str(demo), run_name="__main__")
        got[demo.name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert got == {
        "01_networks_and_walks.py": "12753c2b01f31468316b371364be6bb5824f6b53f6bf4cd41b4d17b697fcd9f4",
        "02_subtree_decomposition.py": "27141a079e6e4c4d4834c5ca65c3437853df6b0d300bc28d25a05d0e9c8ba4c7",
        "03_tree_attack.py": "e1759a0d476220b4be1ca06ce3ddf552e0cc8c626d45d6779cffb113f6842be5",
        "04_extremity_patrolling.py": "e3601fa098cd1e9235c73dec5ca422ae69db37118523897cca87eb0343858755",
        "05_complete_networks.py": "73ae316e55976ddcdd3c521353a2953cac5d138d053d7a9e35df2620169b0e19",
        "06_monte_carlo.py": "ade0bbafecf798f5683daa8541a9e26dcbc2387e951ef14514aaea02c025f9cf",
    }


def test_factorize_size_guard(tmp_path, capsys):
    k10 = tmp_path / "k10.net"
    k10.write_text(format_network(complete_network(10)))
    assert main(["factorize", str(k10), "--enumerate"]) == 3


def test_patrol_file_round_trips_via_cli(tree_file, tmp_path, capsys):
    from patrolgame import serialize as ser
    from patrolgame import e_patrolling

    out_file = tmp_path / "p.txt"
    main(["patrol", tree_file, "--alpha", "4", "--kind", "e", "-o", str(out_file)])
    tree = make_sample_tree()
    direct = ser.write_patrol(e_patrolling(tree, 4))
    assert out_file.read_text() == direct


def test_missing_network_file(capsys):
    assert main(["decompose", "/nonexistent.net", "--alpha", "2"]) == 1
    assert "no such file" in capsys.readouterr().err


def test_network_path_is_a_directory(tmp_path, capsys):
    assert main(["decompose", str(tmp_path), "--alpha", "2"]) == 1
    assert capsys.readouterr().err == f"error: is a directory: {tmp_path}\n"


def test_network_file_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_bytes(b"node a\xff\n")
    assert main(["decompose", str(bad), "--alpha", "2"]) == 1
    assert capsys.readouterr().err == f"error: not UTF-8 text: {bad}\n"


def test_output_path_is_a_directory(tree_file, tmp_path, capsys):
    assert main(["decompose", tree_file, "--alpha", "4", "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: is a directory: {tmp_path}\n"


def test_simulate_patrol_path_is_a_directory(tree_file, tmp_path, capsys):
    assert main(["simulate", tree_file, "--patrol", str(tmp_path), "--attack", str(tmp_path),
                 "--alpha", "4"]) == 1
    assert capsys.readouterr().err == f"error: is a directory: {tmp_path}\n"
