"""Command line interface.

Subcommands: ``compute`` scores a truth/estimate file pair, ``scenario``
writes the study scenarios (or a seeded random one) as track-set files,
``split`` breaks estimated tracks covering several truths, and ``selftest``
replays the golden table.  Exit codes: 0 ok, 2 parse error, 3 validation
error, 4 configuration error, 5 split non-convergence.

``compute`` prints each metric's library ``MetricReport``: every summary
and per-scan value is ``core.root_mean`` of raw per-scan sums.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import dataclass

from .core import MetricParams, MetricReport, ScanDistances, TrackSet, scan_distances
from .errors import (
    BadParametersError,
    NoConvergenceError,
    ParseError,
    ScanMismatchError,
    TooLargeError,
    TrackMetricError,
    ValidationError,
)
from .io import load_track_set, save_track_set
from .ospa import ospa_per_scan
from .ospamt import Mode, ospamt_metric, split_tracks
from .ospat import ospat_per_scan
from .scenarios import FigureId, Scenario, ScenarioSpec, build, random_scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONFIG = 4
EXIT_NO_CONVERGENCE = 5

CSV_HEADER = ["t", "metric", "total", "loc", "card", "n_t"]


@dataclass
class MetricRows:
    """Uniform result shape for one metric: its report, assignment text and extras.

    ``assignment_text`` is a function of no arguments, called only by an
    output that prints the text, so a CSV or plain table run never reads
    the per-scan matchings of OSPA and OSPAT.
    """

    name: str
    report: MetricReport
    assignment_text: object  # () -> str
    extra: dict

    def rows(self, at_time: int | None = None):
        """(t, total, loc, card, n_t) of every scan, or of scan ``at_time``."""
        r = self.report
        rows = zip(range(1, len(r.n_t) + 1), r.per_time, r.loc_t, r.card_t, r.n_t)
        return [row for row in rows if at_time in (None, row[0])]


def _pairs_text(pairs, left: TrackSet, right: TrackSet) -> str:
    return ", ".join(
        f"{left.track_label(i)}<->{right.track_label(j)}" for i, j in pairs
    ) or "(none)"


def _eval_ospa(
    truth: TrackSet, est: TrackSet, params: MetricParams, mode: Mode, dist: ScanDistances
) -> MetricRows:
    report = ospa_per_scan(truth, est, params, dist)

    def describe() -> str:
        return "; ".join(
            f"t={t}: {_pairs_text(pairs, truth, est)}"
            for t, pairs in enumerate(report.assignment, start=1)
        )

    return MetricRows("ospa", report, describe, {})


def _eval_ospat(
    truth: TrackSet, est: TrackSet, params: MetricParams, mode: Mode, dist: ScanDistances
) -> MetricRows:
    report, pairing = ospat_per_scan(truth, est, params, dist)
    return MetricRows("ospat", report, lambda: "pairing " + _pairs_text(pairing.pairs, truth, est),
                      {"global_distance": sum(pairing.costs_t)})


def _eval_ospamt(
    truth: TrackSet, est: TrackSet, params: MetricParams, mode: Mode, dist: ScanDistances
) -> MetricRows:
    report = ospamt_metric(truth, est, params, mode=mode, dist=dist)
    asg = report.assignment

    def describe() -> str:
        src, tgt = (est, truth) if asg.direction.value == "est_to_truth" else (truth, est)
        mapping = ", ".join(
            f"{tgt.track_label(i)}<-({', '.join(src.track_label(j) for j in order)})"
            for i, order in enumerate(asg.orders, start=1)
            if order
        )
        unassigned = ", ".join(src.track_label(j) for j in asg.unassigned_sources())
        text = f"direction {asg.direction.value}; {mapping or '(none)'}"
        if unassigned:
            text += f"; unassigned: {unassigned}"
        return text

    return MetricRows(
        "ospamt", report, describe, {"direction": asg.direction.value, "n": report.n}
    )


_EVALUATORS = {"ospa": _eval_ospa, "ospat": _eval_ospat, "ospamt": _eval_ospamt}


def _params_from_args(args: argparse.Namespace) -> MetricParams:
    scale = None
    if args.scale is not None:
        try:
            scale = tuple(float(v) for v in args.scale.split(","))
        except ValueError:
            raise BadParametersError(
                f"--scale takes comma-separated numbers, got {args.scale!r}"
            ) from None
    return MetricParams(
        p=args.p,
        c=args.c,
        delta=args.delta,
        alpha=args.alpha,
        p_prime=args.p_prime,
        scale=scale,
    )


def _emit_csv(results: list[MetricRows], at_time: int | None, out) -> None:
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER)
    for res in results:
        for t, total, loc, card, n_t in res.rows(at_time):
            writer.writerow([t, res.name, f"{total!r}", f"{loc!r}", f"{card!r}", n_t])


def _emit_table(
    results: list[MetricRows],
    per_time: bool,
    at_time: int | None,
    report_assignment: bool,
    out,
) -> None:
    print(f"{'metric':8} {'total':>14} {'loc':>14} {'card':>14}", file=out)
    for res in results:
        print(
            f"{res.name:8} {res.report.total:14.6f} {res.report.loc:14.6f} "
            f"{res.report.card:14.6f}",
            file=out,
        )
        for key, value in res.extra.items():
            print(f"  {key}: {value}", file=out)
    if per_time or at_time is not None:
        print(file=out)
        print(f"{'t':>4} {'metric':8} {'total':>14} {'loc':>14} {'card':>14} {'n_t':>4}", file=out)
        for res in results:
            for t, total, loc, card, n_t in res.rows(at_time):
                print(
                    f"{t:4d} {res.name:8} {total:14.6f} {loc:14.6f} {card:14.6f} {n_t:4d}",
                    file=out,
                )
    if report_assignment:
        print(file=out)
        for res in results:
            print(f"{res.name} assignment: {res.assignment_text()}", file=out)


def _load_pair(args: argparse.Namespace, params: MetricParams) -> tuple[TrackSet, TrackSet]:
    """Load the truth and estimate files and check them against each other
    and against ``--scale``."""
    truth = load_track_set(args.truth)
    est = load_track_set(args.est)
    if truth.scans != est.scans:
        raise ScanMismatchError(
            f"scan counts differ: {args.truth} has {truth.scans}, "
            f"{args.est} has {est.scans}"
        )
    if params.scale is not None and len(params.scale) != truth.state_dim:
        raise BadParametersError(
            f"--scale has {len(params.scale)} factors for state dimension {truth.state_dim}"
        )
    return truth, est


def cmd_compute(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    mode = Mode(args.mode)
    truth, est = _load_pair(args, params)
    if args.at_time is not None and not (1 <= args.at_time <= truth.scans):
        raise BadParametersError(
            f"--at-time {args.at_time} outside 1..{truth.scans}"
        )
    names = ["ospa", "ospat", "ospamt"] if args.metric == "all" else [args.metric]
    # one gather of the coexisting distances per call, read by every metric;
    # it dies with the call
    dist = scan_distances(truth, est, params)
    results = [_EVALUATORS[name](truth, est, params, mode, dist) for name in names]
    if args.output == "json":
        doc = {
            "params": {
                "p": params.p,
                "c": params.c,
                "delta": params.delta,
                "alpha": params.alpha,
                "p_prime": params.base_order,
                "scale": list(params.scale) if params.scale else None,
                "mode": mode.value,
            },
            "metrics": {
                res.name: {
                    "total": res.report.total,
                    "loc": res.report.loc,
                    "card": res.report.card,
                    "per_time": [
                        {"t": t, "total": tt, "loc": ll, "card": cc, "n_t": nn}
                        for t, tt, ll, cc, nn in res.rows(args.at_time)
                    ],
                    "assignment": res.assignment_text(),
                    **res.extra,
                }
                for res in results
            },
        }
        json.dump(doc, sys.stdout, indent=2)
        print()
    elif args.output == "csv":
        _emit_csv(results, args.at_time, sys.stdout)
    else:
        _emit_table(results, args.per_time, args.at_time, args.report_assignment, sys.stdout)
    return EXIT_OK


def cmd_scenario(args: argparse.Namespace) -> int:
    if args.figure == "random":
        if args.seed is None:
            raise BadParametersError("scenario random requires --seed")
        truth, est = random_scenario(
            seed=args.seed,
            n_truth=args.n_truth,
            scans=args.scans,
            miss_rate=args.miss_rate,
            false_rate=args.false_rate,
            break_rate=args.break_rate,
            noise=args.noise,
        )
        scenario = Scenario(truth, est)
    else:
        try:
            figure = FigureId(args.figure)
        except ValueError:
            raise BadParametersError(f"unknown figure id {args.figure!r}") from None
        spec = ScenarioSpec(
            figure, epsilon=args.epsilon, eta=args.eta, beta=args.beta, cutoff=args.c
        )
        scenario = build(spec)
    written = [args.truth, args.est]
    if scenario.alt is not None:
        if not args.alt:
            raise BadParametersError(
                f"figure {args.figure} defines a third set; pass --alt PATH"
            )
        written.append(args.alt)
    for track_set, path in zip((scenario.truth, scenario.est, scenario.alt), written):
        save_track_set(track_set, path)
    print("wrote " + ", ".join(str(w) for w in written))
    return EXIT_OK


def cmd_split(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    mode = Mode(args.mode)
    truth, est = _load_pair(args, params)
    new_est, log = split_tracks(truth, est, params, mode=mode)
    save_track_set(new_est, args.out)
    for entry in log:
        print(
            f"split {entry.track_label} into {entry.fragment_count} fragments "
            f"(cut at scans {', '.join(map(str, entry.cut_scans))})"
        )
    if not log:
        print("assignment already one-to-one; output equals input")
    report = ospamt_metric(truth, new_est, params, mode=mode)
    print(f"post-split ospamt total: {report.total!r}")
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest  # imported here so other commands skip the table

    return EXIT_OK if run_selftest() else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on the first call and shared after it:
    an in-process caller of ``main`` parses every call with one parser, and
    importing the module builds none."""
    parser = argparse.ArgumentParser(
        prog="trackmetric",
        description="OSPAMT, OSPA and OSPAT distances between track-set files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--p", type=float, default=1.0, help="order parameter (default 1)")
        p.add_argument("--c", type=float, default=80.0, help="cutoff (default 80)")
        p.add_argument("--delta", type=float, default=10.0, help="extra-assignment penalty (default 10)")
        p.add_argument("--alpha", type=float, default=10.0, help="OSPAT label penalty (default 10)")
        p.add_argument("--p-prime", dest="p_prime", type=float, default=None,
                       help="base norm order (defaults to p)")
        p.add_argument("--scale", type=str, default=None,
                       help="comma-separated per-dimension scale factors")
        p.add_argument("--mode", choices=[m.value for m in Mode], default="auto",
                       help="assignment search mode (default auto)")

    comp = sub.add_parser("compute", help="score an estimate file against a truth file")
    comp.add_argument("truth")
    comp.add_argument("est")
    comp.add_argument("--metric", choices=["ospa", "ospat", "ospamt", "all"], default="ospamt")
    add_params(comp)
    comp.add_argument("--per-time", action="store_true", help="emit one row per scan")
    comp.add_argument("--at-time", type=int, default=None, help="restrict per-scan output to one scan")
    comp.add_argument("--output", choices=["table", "csv", "json"], default="table")
    comp.add_argument("--report-assignment", action="store_true")
    comp.set_defaults(func=cmd_compute)

    scen = sub.add_parser("scenario", help="write a study scenario as track-set files")
    scen.add_argument("figure", help="figure id (fig1a..fig13) or 'random'")
    scen.add_argument("--truth", required=True)
    scen.add_argument("--est", required=True)
    scen.add_argument("--alt", default=None, help="third set output (fig13)")
    scen.add_argument("--epsilon", type=float, default=1.0)
    scen.add_argument("--eta", type=float, default=5.0)
    scen.add_argument("--beta", type=float, default=1000.0)
    scen.add_argument("--c", type=float, default=80.0)
    scen.add_argument("--seed", type=int, default=None, help="seed for 'random'")
    scen.add_argument("--n-truth", type=int, default=3)
    scen.add_argument("--scans", type=int, default=10)
    scen.add_argument("--miss-rate", type=float, default=0.0)
    scen.add_argument("--false-rate", type=float, default=0.0)
    scen.add_argument("--break-rate", type=float, default=0.0)
    scen.add_argument("--noise", type=float, default=0.0)
    scen.set_defaults(func=cmd_scenario)

    spl = sub.add_parser("split", help="split estimated tracks covering several truths")
    spl.add_argument("truth")
    spl.add_argument("est")
    spl.add_argument("--out", required=True)
    add_params(spl)
    spl.set_defaults(func=cmd_split)

    self_p = sub.add_parser("selftest", help="replay the golden tables")
    self_p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, ScanMismatchError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NoConvergenceError as exc:
        print(f"split did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (BadParametersError, TooLargeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrackMetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
