import os
import subprocess
import sys
from pathlib import Path

import pytest

import cli_table
from patrolgame.cli import main
from patrolgame import format_network, complete_network
from conftest import make_sample_tree


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


def test_no_numpy_outside_monte_carlo(tree_file):
    # only Monte Carlo needs numpy: importing the package and a one-shot
    # `decompose` leave it unloaded, so a fresh CLI process does not pay for it
    code = ("import sys, patrolgame\n"
            "from patrolgame import cli\n"
            "loaded = ['numpy' in sys.modules]\n"
            f"cli.main(['decompose', {tree_file!r}, '--alpha', '4'])\n"
            "loaded.append('numpy' in sys.modules)\n"
            "print(loaded)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[False, False]"


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


def _run_groups(workdir, *groups):
    # pinned CLI and demo outputs (tests/cli_table.py), through cli.main and
    # runpy; CI runs every row through the installed entry point
    rows = [row for group in groups for row in cli_table.GROUPS[group]]
    failures = cli_table.run(cli_table.in_process, workdir, rows=rows)
    assert not failures, "\n".join(failures)


def test_complete_network_outputs_frozen(tmp_path):
    _run_groups(tmp_path, "complete")


def test_factorize_size_guard(tmp_path):
    _run_groups(tmp_path, "guard")


def test_tree_outputs_frozen(tmp_path):
    _run_groups(tmp_path, "tree")


def test_large_tree_outputs_frozen(tmp_path):
    _run_groups(tmp_path, "large_tree")


def test_demo_outputs_frozen(tmp_path):
    # a demo without a row would be neither run nor pinned
    assert cli_table.unpinned_demos() == []
    _run_groups(tmp_path, "demo")


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
