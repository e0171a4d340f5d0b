"""Tests of the benchmark's own code: seeded generation and the checks.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import random
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402

pg = run.import_library()
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import jobs  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

WORKLOADS = sorted(inputs.GENERATORS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    make = inputs.GENERATORS[workload]
    assert make(7) == make(7)
    assert make(7).digest() == make(7).digest()
    assert make(7).digest() != make(8).digest()


def test_generated_trees_parse_with_the_requested_sizes():
    for item in inputs.tree_solve_inputs(3).passes[0]:
        net = pg.parse_network(item.text)
        assert net.is_tree()
        assert f"solve-n{len(net.nodes)}" == item.name
        assert 0 < item.alpha_share < 1


def small_solve_job():
    tree = inputs.TreeInput("solve-n12", inputs.tree_text(random.Random(5), 12),
                            Fraction(1, 2))
    return jobs.Job(tree.name, lambda tr: jobs.solve_tree(tree, tr))


def count_failed(job_list):
    _, attempted, failed = run.end_to_end([job_list], 1, [0.0])
    return attempted, failed


def test_clean_jobs_pass_the_checks():
    assert count_failed([small_solve_job()]) == (1, 0)


def test_perturbed_attack_mass_is_caught(monkeypatch):
    real = pg.tree_attack_strategy

    def tampered(*args, **kwargs):
        a = real(*args, **kwargs)
        (p, m), (q, n) = a.atoms[:2]
        shift = Fraction(1, 1000)
        atoms = ((p, m + shift), (q, n - shift)) + a.atoms[2:]
        return pg.AttackStrategy(a.network, atoms, a.uniform_parts, a.temporal)

    monkeypatch.setattr(pg, "tree_attack_strategy", tampered)
    with pytest.raises(jobs.CheckFailed, match="EBD"):
        small_solve_job().run(NullTracer())
    assert count_failed([small_solve_job()]) == (1, 1)


def test_changed_patrol_byte_is_caught(monkeypatch, tmp_path):
    real = jobs.cli.main

    def tampered(argv):
        code = real(argv)
        if argv[0] == "patrol":
            out = Path(argv[argv.index("-o") + 1])
            out.write_text(out.read_text().replace("mix 1/2", "mix 1/3", 1))
        return code

    monkeypatch.setattr(jobs.cli, "main", tampered)
    tree = inputs.TreeInput("verify-sample", inputs.SAMPLE_TREE, Fraction(0))
    path = tmp_path / "sample.net"
    path.write_text(tree.text)
    job = jobs.Job(tree.name, lambda tr: jobs.verify_tree(tree, path, tmp_path, 0, tr))
    assert count_failed([job]) == (1, 1)


def test_wrong_game_value_is_caught(monkeypatch):
    real = pg.game_value_tree
    monkeypatch.setattr(pg, "game_value_tree",
                        lambda net, alpha: real(net, alpha) * Fraction(999, 1000))
    with pytest.raises(jobs.CheckFailed, match="alpha/"):
        small_solve_job().run(NullTracer())


def test_wrong_enumeration_count_is_caught(monkeypatch):
    real = pg.enumerate_one_factorizations
    monkeypatch.setattr(pg, "enumerate_one_factorizations", lambda net: list(real(net))[1:])
    job = jobs.Job("enumerate-small",
                   lambda tr: jobs.enumerate_counts({6: inputs.unit_complete_text(6)}, tr))
    with pytest.raises(jobs.CheckFailed):
        job.run(NullTracer())


def test_spans_give_busy_and_self_time():
    tr = Tracer()
    tr.begin_job("j")
    with tr.span("bench.job"):
        with tr.span("engine.grid"):
            with tr.span("engine.grid"):
                pass
        with tr.span("bench.check"):
            pass
    s = tr.summary()
    assert s["engine.grid.calls"] == 2
    assert s["engine.busy_s"] == pytest.approx(s["engine.grid.busy_s"])
    job_span = tr.spans[0]
    assert s["bench.job.busy_s"] == pytest.approx(job_span[2] - job_span[1])
    assert 0 <= s["bench.job.self_s"] <= s["bench.job.busy_s"]
    assert all(span[4] == "j" for span in tr.spans)


def test_tail_keeps_ten_jobs_beyond_it():
    lat = [float(i) for i in range(100)]
    value, pct = run.tail(lat)
    assert value == 89.0 and sum(x > value for x in lat) == 10 and pct == 90.0


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_meter_samples_during_the_job_and_takes_them_out():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Meter() as meter:
        t0 = time.perf_counter()
        busy(0.2)
        dt = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(meter.samples) >= 2 + 5 and 0 < meter.inside < dt
    assert meter.nominal(dt) == pytest.approx(
        (dt - meter.inside) * hostspeed.NOMINAL_S / statistics.fmean(meter.samples))


def test_paused_meter_samples_only_around_the_job():
    with hostspeed.Meter() as meter, hostspeed.paused():
        busy(0.1)
    assert len(meter.samples) == 2 and meter.inside == 0
