"""Acceptance suite: one test per criterion, each at its stated tolerance.

Criteria 01 and 03-07 assert the rows of the golden table in
``trackmetric.selftest``, the one place the paper's worked values are
written, and add only what a row cannot hold: a timing budget, a second
order p, an ordering of totals, a split through the CLI.  The conftest
terminal-summary hook prints one PASS/FAIL line per criterion at the end of
the run.
"""

import csv
import io
import math
import random
import time

import pytest

from conftest import (
    golden,
    random_small_set,
    record_criterion,
    same_track_sets,
    shuffled_copy,
    states_at,
)
from oracles import oracle_ospamt
from trackmetric.cli import main
from trackmetric.core import MetricParams
from trackmetric.io import load_track_set, save_track_set
from trackmetric.ospa import ospa
from trackmetric.ospamt import Mode, ospamt_metric
from trackmetric.ospat import ospat_label, ospat_labeled, ospat_reorder
from trackmetric.scenarios import FigureId, ScenarioSpec, build
from trackmetric.selftest import GOLDEN, scenario

TOL = 1e-9


def fig(fig_id, **kw):
    return build(ScenarioSpec(fig_id, **kw))


def assert_row(criterion, p=1.0):
    """Check one golden-table row; a failure names the row and every
    comparison that failed.  Returns the values got."""
    row = GOLDEN[criterion]
    got, failed = row.check(p)
    assert not failed, f"{row.name}: " + "; ".join(failed)
    return got


def probe_s():
    """Wall time of the benchmark's speed probe (``perfbench/worker.py``,
    copied here): 1 ms on its reference host, so a time divided by the
    probe's and multiplied by 1 ms is in reference seconds."""
    t0 = time.perf_counter()
    acc, cells = 0.0, {}
    for i in range(10_000):
        cells[i % 97] = acc
        acc += (i * 0.5) ** 0.5
    return time.perf_counter() - t0


def test_criterion_01_example2_closed_forms():
    got = assert_row("01_example2_closed_forms")
    calls, params = GOLDEN["01_example2_closed_forms"].calls, MetricParams()
    best, before = math.inf, probe_s()
    for _ in range(200):
        t0 = time.perf_counter()
        calls(params)
        best = min(best, time.perf_counter() - t0)
    probe = (before + probe_s()) / 2
    # the 1 ms budget holds on the reference host; a slower host is scaled
    scaled = best * 1e-3 / probe
    assert scaled < 1e-3, (
        f"fastest run took {scaled * 1e3:.3f} reference ms "
        f"({best * 1e3:.3f} ms, speed probe {probe * 1e3:.2f} ms)"
    )
    record_criterion(
        "01_example2_closed_forms",
        "A1..A4 = {A1:g}, {A2:g}, {A3:g}, {A4:g}".format(**got)
        + f"; fastest run {best * 1e6:.0f} us, {scaled * 1e6:.0f} reference us",
    )


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_criterion_02_assignment_flip_threshold(p):
    eps, delta = 1.0, 10.0
    c_star = (eps**p + delta**p) ** (1.0 / p)
    sc = fig(FigureId.FIG1A, epsilon=eps)
    for rel in (1e-3, 1e-6):
        below = MetricParams(p=p, c=c_star * (1 - rel), delta=delta)
        above = MetricParams(p=p, c=c_star * (1 + rel), delta=delta)
        r_below = ospamt_metric(sc.truth, sc.est, below, Mode.EXACT)
        r_above = ospamt_metric(sc.truth, sc.est, above, Mode.EXACT)
        # cutoff below the threshold: dropping the second estimate wins
        assert r_below.assignment.source_to_target == (1, 0)
        # cutoff above: the many-to-one assignment wins
        assert r_above.assignment.source_to_target == (1, 1)
    record_criterion(
        "02_assignment_flip_threshold", f"switches at c^p = eps^p + delta^p (p={p})"
    )


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_criterion_03_table1_fig9(p):
    assert_row("03_table1_fig9", p)
    record_criterion("03_table1_fig9", f"fig9a (eps, 11-like, c) and fig9b eta at p={p}")


def test_criterion_04_table2_fig1a_pairings():
    assert_row("04_table2_fig1a_pairings")
    record_criterion("04_table2_fig1a_pairings", "ospa/ospat swap, ospamt many-to-one")


def test_criterion_05_table3_fig11():
    got = assert_row("05_table3_fig11")
    totals = got["fig11a total"], got["fig11b total"]
    assert totals[0] < totals[1]
    record_criterion("05_table3_fig11", f"totals {totals[0]:.6f} < {totals[1]:.6f}")


def test_criterion_06_fig5_fig6_and_split(tmp_path, capsys):
    got = assert_row("06_fig5_fig6_and_split")
    sc5 = scenario(FigureId.FIG5)
    truth_path = tmp_path / "t.json"
    est_path = tmp_path / "e.json"
    out_path = tmp_path / "split.json"
    save_track_set(sc5.truth, truth_path)
    save_track_set(sc5.est, est_path)
    assert main(["split", str(truth_path), str(est_path), "--out", str(out_path)]) == 0
    capsys.readouterr()
    after = ospamt_metric(sc5.truth, load_track_set(out_path), MetricParams(), Mode.EXACT)
    want = golden("06_fig5_fig6_and_split", "fig5 after split")
    assert after.total == pytest.approx(want, rel=TOL)
    record_criterion(
        "06_fig5_fig6_and_split",
        f"{got['fig5']:.3f} vs {got['fig6']:.3f}; post-split {after.total:.3f}",
    )


def test_criterion_07_remark4_matrices():
    assert_row("07_remark4_matrices")
    record_criterion("07_remark4_matrices", "D1..D4 reproduced exactly")


def test_criterion_08_metric_axioms_bulk():
    t0 = time.monotonic()
    params = MetricParams()
    rng = random.Random(20260809)
    n_triples = 500

    def d(a, b):
        return ospamt_metric(a, b, params, Mode.EXACT).total

    for _ in range(n_triples):
        a = random_small_set(rng)
        b = random_small_set(rng)
        c = random_small_set(rng)
        d_ab, d_ba = d(a, b), d(b, a)
        assert abs(d_ab - d_ba) <= TOL  # symmetry
        assert d(a, shuffled_copy(rng, a)) == 0.0  # identity, equal sets
        if not same_track_sets(a, b):
            assert d_ab > TOL  # identity, unequal sets
        assert d_ab <= d(a, c) + d(c, b) + TOL  # triangle

    for _ in range(n_triples):
        xs = [(float(rng.randint(0, 9)),) for _ in range(rng.randint(0, 4))]
        ys = [(float(rng.randint(0, 9)),) for _ in range(rng.randint(0, 4))]
        zs = [(float(rng.randint(0, 9)),) for _ in range(rng.randint(0, 4))]
        d_xy = ospa(xs, ys, params).total
        assert abs(d_xy - ospa(ys, xs, params).total) <= TOL
        assert ospa(xs, list(reversed(xs)), params).total == 0.0
        if sorted(xs) != sorted(ys):
            assert d_xy > TOL
        assert d_xy <= ospa(xs, zs, params).total + ospa(zs, ys, params).total + TOL

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"axiom sweep took {elapsed:.1f}s"
    record_criterion(
        "08_metric_axioms_bulk", f"2x{n_triples} triples in {elapsed:.1f}s"
    )


def test_criterion_09_ospat_pathologies():
    # (a) triangle violation at t=4 of the relabeling scenario
    sc = fig(FigureId.FIG13)
    for alpha in (1.0, 10.0, 80.0 * 0.9):
        params = MetricParams(alpha=alpha)

        def at4(x, y):
            labels = ospat_label(x, y, ospat_reorder(x, y, params))
            return ospat_labeled(x, y, *labels, params).per_time[3]

        assert at4(sc.truth, sc.alt) > at4(sc.truth, sc.est) + at4(sc.est, sc.alt)

    # (b) alpha = 0 breaks identity: same states, different labels, zero distance
    from trackmetric.core import Track, TrackSet

    params0 = MetricParams(alpha=0.0)
    ts = TrackSet(1, 1, (Track({1: 3.0}),))
    la, lb = (1,), (2,)
    assert ospat_labeled(ts, ts, la, lb, params0).per_time[0] == 0.0
    assert la != lb

    # (c) equal-size sets always pair fully, even across disjoint lifetimes
    sc10 = fig(FigureId.FIG10A)
    assert ospat_reorder(sc10.truth, sc10.est, MetricParams()).pairs == ((1, 1),)
    record_criterion("09_ospat_pathologies", "triangle, identity, disjoint pairing")


def test_criterion_10_t1_reduction():
    params = MetricParams()
    rng = random.Random(99)
    for _ in range(200):
        a = random_small_set(rng, scans=1)
        b = random_small_set(rng, scans=1)
        got = ospamt_metric(a, b, params, Mode.EXACT).total
        want = ospa(states_at(a, 1), states_at(b, 1), params).total
        assert got == pytest.approx(want, rel=TOL, abs=1e-12)
    record_criterion("10_t1_reduction", "ospamt == ospa on 200 single-scan instances")


def test_criterion_11_oracle_agreement_and_greedy_gap():
    params = MetricParams()
    rng = random.Random(4242)
    diverged = 0
    n_cases = 200
    for _ in range(n_cases):
        a = random_small_set(rng, max_tracks=3, scans=3)
        b = random_small_set(rng, max_tracks=3, scans=3)
        exact = ospamt_metric(a, b, params, Mode.EXACT).total
        want = oracle_ospamt(a, b, params)
        assert exact == pytest.approx(want, rel=TOL, abs=1e-12)
        greedy = ospamt_metric(a, b, params, Mode.GREEDY).total
        assert greedy >= exact - TOL
        if greedy > exact + TOL:
            diverged += 1
    rate = diverged / n_cases
    # no optimality claim exists for the greedy procedure: report, don't gate
    print(f"greedy/exact divergence rate: {rate:.1%} ({diverged}/{n_cases})")
    record_criterion(
        "11_oracle_agreement_and_greedy_gap",
        f"exact==brute force on {n_cases}; greedy diverged {rate:.1%}",
    )


def test_criterion_12_per_time_csv_contract(tmp_path, capsys):
    # The large tracker studies are not reproducible (outputs unpublished);
    # criteria 8-11 substitute property-based acceptance and this check pins
    # the per-scan CSV contract: T rows per metric, loc/card partition per row.
    p = 2.0
    sc = fig(FigureId.FIG1B)
    truth_path = tmp_path / "t.json"
    est_path = tmp_path / "e.json"
    save_track_set(sc.truth, truth_path)
    save_track_set(sc.est, est_path)
    assert (
        main(
            [
                "compute", str(truth_path), str(est_path),
                "--metric", "all", "--output", "csv", "--p", str(p),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    by_metric: dict[str, list] = {}
    for row in rows:
        by_metric.setdefault(row["metric"], []).append(row)
    assert set(by_metric) == {"ospa", "ospat", "ospamt"}
    for metric, mrows in by_metric.items():
        assert len(mrows) == sc.truth.scans
        assert [int(r["t"]) for r in mrows] == list(range(1, sc.truth.scans + 1))
        for row in mrows:
            total, loc, card = (float(row[k]) for k in ("total", "loc", "card"))
            assert total**p == pytest.approx(loc**p + card**p, rel=TOL, abs=TOL)
    record_criterion("12_per_time_csv_contract", "T rows per metric, loc/card partition")
