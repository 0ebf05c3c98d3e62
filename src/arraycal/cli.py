"""Command-line interface: code utilities, theory evaluation, simulation runs."""

import argparse
import json
import sys

import numpy as np

from . import harness, theory as accuracy
from .codes import generate_msequence, periodic_autocorrelation, to_bipolar, walsh_matrix
from .errors import ArrayCalError, ConfigError, NegativeRadicand


def _parse_taps(text):
    return tuple(int(t) for t in text.split(","))


def _write_lines(lines, out):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_codes_gen(args):
    if args.kind == "msequence":
        seq = generate_msequence(args.degree, args.taps)
        codes = [to_bipolar(seq) if args.bipolar else seq.bits]
    else:
        matrix = walsh_matrix(args.length, args.count)
        codes = [matrix[:, v] for v in range(matrix.shape[1])]
    # m-sequence bits print as integers, bipolar and Walsh chips as floats.
    chip = repr if args.kind == "walsh" or args.bipolar else int
    values = [[str(chip(c.item())) for c in code] for code in codes]
    lines = ([v for code in values for v in code] if args.format == "chips" else
             [",".join(code) for code in values])
    _write_lines(lines, args.out)
    return 0


def _cmd_codes_check(args):
    seq = generate_msequence(args.degree, args.taps)
    code = to_bipolar(seq)
    length = len(code)
    expected_ones = 2 ** (args.degree - 1)
    balance_ok = seq.ones_count == expected_ones
    off_peak = np.array([periodic_autocorrelation(code, lag) for lag in range(1, length)])
    two_valued_ok = bool(np.all(np.abs(off_peak + 1.0 / length) < 1e-12))
    peak_ok = abs(periodic_autocorrelation(code, 0) - 1.0) < 1e-12
    print(f"length: {length}")
    print(f"balance: {'ok' if balance_ok else 'FAIL'} ({seq.ones_count} ones, expected {expected_ones})")
    print(f"peak autocorrelation: {'ok' if peak_ok else 'FAIL'}")
    print(f"off-peak autocorrelation == -1/L: {'ok' if two_valued_ok else 'FAIL'}")
    return 0 if (balance_ok and two_valued_ok and peak_ok) else 1


def _cmd_theory_eval(args):
    # A one-point scenario: the same validation and point model as `simulate`.
    cfg = harness.ScenarioConfig(scheme=args.scheme, code_length=args.length,
                                 n_elements=args.elements, snr_grid_db=(args.ev_n0_db,),
                                 master_seed=args.seed, taps=args.taps)
    model = harness.PointModel.build(cfg, harness.scenario_points(cfg)[0])
    stats = model.noise_stats()
    exact = accuracy.theory_point(model.gains, stats)
    print(f"scheme={args.scheme} V={args.elements} L={args.length} EvN0={args.ev_n0_db} dB")
    outside = "outside the high-SNR expansion's regime"
    try:
        point = accuracy.closed_form_point(model.gains, stats)
    except NegativeRadicand:
        gain = phase = outside
    else:
        gain = f"{accuracy.average_rmse(point.gain_rmse_db):.6g} dB"
        # An error in (-180, 180] deg has no RMSE above 180 deg.
        phase = (outside if np.max(point.phase_rmse_deg) > 180.0
                 else f"{accuracy.average_rmse(point.phase_rmse_deg):.6g} deg")
    print(f"gain RMSE (element-averaged): {gain}")
    print(f"phase RMSE (element-averaged): {phase}")
    # The theory columns of a report, whose repr they print.
    print(f"exact gain RMSE (element-averaged): {accuracy.average_rmse(exact.gain_rmse_db)!r} dB")
    print(f"exact phase RMSE (element-averaged): "
          f"{accuracy.average_rmse(exact.phase_rmse_deg)!r} deg")
    return 0


def _cmd_simulate(args):
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read scenario file {args.config}: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"scenario file {args.config} must hold a JSON object")
    if args.seed is not None:
        raw["master_seed"] = args.seed
    if args.trials is not None:
        raw["trials"] = args.trials
    cfg = harness.ScenarioConfig.from_dict(raw)
    return _emit(harness.run_scenario(cfg, workers=args.workers), args.out)


def _cmd_reproduce(args):
    return _emit(harness.reproduce_figure(args.figure, master_seed=args.seed,
                                          trials=args.trials, workers=args.workers), args.out)


def _emit(report, out):
    report.write_csv(out or sys.stdout)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arraycal",
        description="Parallel phased-array calibration: codes, accuracy theory, Monte-Carlo runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    codes = sub.add_parser("codes", help="generate or check signature codes")
    codes_sub = codes.add_subparsers(dest="codes_command", required=True)

    gen = codes_sub.add_parser("gen", help="emit a code as text")
    gen.add_argument("--kind", choices=("msequence", "walsh"), default="msequence")
    gen.add_argument("--degree", type=int, default=6, help="LFSR degree (msequence)")
    gen.add_argument("--taps", type=_parse_taps, default=None,
                     help="comma-separated polynomial exponents, e.g. 6,5,3,2")
    gen.add_argument("--bipolar", action="store_true",
                     help="emit normalized bipolar chips instead of bits")
    gen.add_argument("--length", type=int, default=64, help="Walsh code length (power of two)")
    gen.add_argument("--count", type=int, default=1, help="number of Walsh codes")
    gen.add_argument("--format", choices=("chips", "csv"), default="chips",
                     help="chips: one value per line; csv: one comma-separated row per code")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_codes_gen)

    check = codes_sub.add_parser("check", help="verify balance and autocorrelation")
    check.add_argument("--degree", type=int, required=True)
    check.add_argument("--taps", type=_parse_taps, default=None)
    check.set_defaults(func=_cmd_codes_check)

    ev = sub.add_parser("theory", help="accuracy predictions: the paper's closed form and "
                                       "the exact error model")
    ev_sub = ev.add_subparsers(dest="theory_command", required=True)
    evp = ev_sub.add_parser(
        "eval", help="element-averaged RMSEs of one point: the paper's closed form, a high-SNR "
                     "expansion printed as outside its regime where it has no value, then "
                     "the exact model that reports print")
    evp.add_argument("--scheme", choices=harness.SCHEMES, required=True)
    evp.add_argument("--elements", type=int, required=True)
    evp.add_argument("--length", type=int, required=True)
    evp.add_argument("--ev-n0-db", type=float, required=True)
    evp.add_argument("--taps", type=_parse_taps, default=None)
    evp.add_argument("--seed", type=int, default=harness.DEFAULT_SEED,
                     help="seed for the phase draw the prediction is evaluated at")
    evp.set_defaults(func=_cmd_theory_eval)

    sim = sub.add_parser("simulate", help="run a scenario file")
    sim.add_argument("config", help="JSON scenario file")
    sim.add_argument("--seed", type=int, default=None, help="override master_seed")
    sim.add_argument("--trials", type=int, default=None, help="override trials")
    sim.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    sim.add_argument("--workers", type=int, default=1)
    sim.set_defaults(func=_cmd_simulate)

    rep = sub.add_parser("reproduce", help="run a full figure grid")
    rep.add_argument("figure", choices=harness.FIGURE_NAMES)
    rep.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    rep.add_argument("--trials", type=int, default=None,
                     help="override the per-row trial counts (smoke tests)")
    rep.add_argument("--out", default=None)
    rep.add_argument("--workers", type=int, default=1)
    rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ArrayCalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
