"""Command-line front end.

Subcommands: payoff, simulate, tomography, geometry, chsh, witness make,
witness check.  Every input is a flag.  Exit codes form a stable scripting
contract: 0 for success or a positive detection, 1 for a clean negative
result, 2 for any error.  ``simulate`` detects only when its mean payoff
exceeds ``game.detection_threshold``, a margin that a run whose expected
payoff is <= 0 exceeds with probability at most ``game.DETECTION_ALPHA``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import game, geometry, qcore, serialize, tomography, witness
from .serialize import float17

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _emit(chunks, out: str | None) -> None:
    """Write an iterable of strings to --out, or to stdout, as they arrive."""
    if out is not None:
        with open(out, "w", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(payload, out: str | None) -> None:
    """Write json.dumps(payload, indent=2) and a newline in one piece: each
    payload here is a few kB.  The figures, which run to megabytes, stream
    their JSON themselves through FigureData.json_text()."""
    _emit([json.dumps(payload, indent=2) + "\n"], out)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_payoff(args) -> int:
    rho = serialize.parse_state_spec(args.state)
    wit = serialize.parse_witness_spec(args.witness)
    value = witness.expected_payoff(rho, wit)
    print(float17(value))
    return EXIT_OK if value > 0.0 else EXIT_NEGATIVE


def cmd_simulate(args) -> int:
    want_csv = args.format == "csv"
    if want_csv and args.out is None:
        raise ValueError("--format csv needs --out for the transcript file")
    rho = serialize.parse_state_spec(args.state)
    wit = serialize.parse_witness_spec(args.witness)
    witness.check_qubit_counts(rho, wit)
    config = serialize.parse_pi_spec(args.pi, wit.weights, args.rounds, args.seed)
    if args.strategy == "honest":
        strategy = game.honest_strategy(rho)
    else:
        if wit.n_qubits != 2:
            raise ValueError("the cheating strategy is defined for the two-party game")
        strategy = game.classical_cheat_strategy()

    # keep_records never changes the moments; only the csv transcript needs records
    tr = game.run_game(config, strategy, wit.weights, keep_records=want_csv)
    mean, se = game.empirical_payoff(tr)
    threshold = game.detection_threshold(tr)
    line = (f"mean={float17(mean)} std_error={float17(se)} rounds={tr.rounds} "
            f"seed={tr.config.seed}\n")
    if want_csv:
        _emit(tr.csv_lines(), args.out)
        sys.stdout.write(line)
    elif args.format == "structured":
        summary = {"mean": mean, "std_error": se, "rounds": tr.rounds, "seed": tr.config.seed,
                   "strategy": strategy.name, "lower_bound": mean - threshold,
                   "alpha": game.DETECTION_ALPHA}
        _emit_json(summary, args.out)
    else:
        _emit([line], args.out)
    return EXIT_OK if mean > threshold else EXIT_NEGATIVE


def cmd_tomography(args) -> int:
    rho = serialize.parse_state_spec(args.state)
    if rho.n_qubits != 2:
        raise ValueError("tomography is defined for two-qubit states")
    # payments never reach the estimates; the werner weights keep --pi's meaning
    weights = witness.werner_witness().weights
    config = serialize.parse_pi_spec(args.pi, weights, args.rounds, args.seed)
    tr = game.run_game(config, game.honest_strategy(rho), weights)
    r_hat = tomography.accumulate(tr)
    est = tomography.reconstruct(r_hat)
    err = tomography.reconstruction_error(rho, est)
    if args.format == "text":
        text = [f"rounds={tr.rounds} seed={tr.config.seed}",
                f"trace_distance_to_input={float17(err)}", "r_hat:"]
        text += ["  " + " ".join(f"{r:+.6f}" for r in row) for row in r_hat]
        _emit(["\n".join(text) + "\n"], args.out)
        return EXIT_OK

    counts = tr.counts.reshape(4, 4)
    # binomial standard error of each cell's mean of n answers of +/-1
    se = np.sqrt(np.clip(1.0 - r_hat * r_hat, 0.0, None) / counts)
    cells = [(s, t) for s in range(4) for t in range(4)]
    if args.format == "csv":
        lines = ["s,t,r_hat,std_error,count"]
        lines += [f"{s},{t},{float17(r_hat[s, t])},{float17(se[s, t])},{counts[s, t]}"
                  for s, t in cells]
        _emit(["\n".join(lines) + "\n"], args.out)
    else:
        _emit_json({
            "rounds": tr.rounds,
            "seed": tr.config.seed,
            "correlations": [[s, t, r_hat[s, t]] for s, t in cells],
            "standard_errors": [[s, t, se[s, t]] for s, t in cells],
            "raw": serialize.matrix_to_dict(est.raw),
            "projected": serialize.matrix_to_dict(est.projected.matrix),
            "trace_distance_to_input": err,
        }, args.out)
    return EXIT_OK


def cmd_geometry(args) -> int:
    fig = geometry.export_figure_data(args.figure, resolution=args.resolution)
    if args.format == "structured":
        _emit(fig.json_text(), args.out)
    else:
        _emit(fig.csv_lines(), args.out)
    return EXIT_OK


def cmd_chsh(args) -> int:
    rho = serialize.parse_state_spec(args.state)
    report = game.chsh_value(rho)
    print(f"S={float17(report.value)}")
    print(f"abs_S={float17(abs(report.value))}")
    print(f"violates_classical_bound={report.violates_classical}")
    print(f"violates_strengthened_bound={report.violates_strengthened}")
    return EXIT_OK if report.violates_classical else EXIT_NEGATIVE


def cmd_witness_make(args) -> int:
    rho = serialize.parse_state_spec(args.state)
    try:
        wit = witness.ppt_witness(rho)
    except witness.PPTStateError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NEGATIVE
    payload = serialize.witness_to_dict(wit)
    payload["payoff_on_state"] = witness.expected_payoff(rho, wit)
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_witness_check(args) -> int:
    rho = serialize.parse_state_spec(args.state)
    wit = serialize.parse_witness_spec(args.witness)
    rng = np.random.default_rng(qcore.check_int(args.seed, "seed", 0))
    report = witness.check_witness(wit, rho, args.samples, rng)
    payload = dataclasses.asdict(report)
    if args.format == "structured":
        _emit_json(payload, args.out)
    else:
        _emit((f"{k}={v if not isinstance(v, float) else float17(v)}\n"
               for k, v in payload.items()), args.out)
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewgame",
        description="Entanglement-witness game: exact payoffs, Monte Carlo "
                    "simulation, tomography, and figure geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state(p):
        p.add_argument("--state", required=True,
                       help=f"state spec: {serialize.STATE_NAMES}")

    def add_witness(p):
        p.add_argument("--witness", required=True,
                       help=f"witness spec: {serialize.WITNESS_NAMES}")

    def add_run(p, pi_help):
        p.add_argument("--rounds", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--pi", default="uniform", help=pi_help)

    def add_out_format(p, formats):
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("payoff", help="print the exact average payoff -Tr(rho W)")
    add_state(p)
    add_witness(p)
    p.set_defaults(func=cmd_payoff)

    p = sub.add_parser("simulate", help="play the game and report the empirical payoff")
    add_state(p)
    add_witness(p)
    add_run(p, "uniform | support-only | JSON file")
    p.add_argument("--strategy", choices=("honest", "cheat"), default="honest")
    add_out_format(p, ("text", "structured", "csv"))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tomography", help="reconstruct the state from an honest run")
    add_state(p)
    add_run(p, "uniform | JSON file (must reach all cells)")
    add_out_format(p, ("text", "structured", "csv"))
    p.set_defaults(func=cmd_tomography)

    p = sub.add_parser("geometry", help="export figure geometry (polytopes, lines)")
    p.add_argument("figure", choices=("fig2", "fig3"))
    p.add_argument("--resolution", type=int, default=20)
    add_out_format(p, ("csv", "structured"))
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("chsh", help="CHSH value of a state with the x/z observables")
    add_state(p)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("witness", help="build or check witnesses")
    wsub = p.add_subparsers(dest="witness_command", required=True)

    p = wsub.add_parser("make", help="tailor a witness to an entangled state")
    add_state(p)
    p.add_argument("--out", help="write the witness JSON to this file")
    p.set_defaults(func=cmd_witness_make)

    p = wsub.add_parser("check", help="probe a witness against sampled product states")
    add_state(p)
    add_witness(p)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    add_out_format(p, ("text", "structured"))
    p.set_defaults(func=cmd_witness_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an empty --out names no file; it never means stdout
        if getattr(args, "out", None) == "":
            raise ValueError("--out '' names no file")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # an input no check above caught still exits 2, never 1 ("negative")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
