"""Command-line experiment runner.

Subcommands cover the full workflow over files: ``fit`` a generator from a
CSV, ``synthesize`` samples from it, run the ``test-*`` procedures, build
prediction intervals, and reproduce the regression coverage study
end-to-end. Every subcommand takes a mandatory ``--seed`` and is
byte-reproducible: identical arguments always produce identical output
files.

CSV conventions: headerless by default (``--header`` skips one line); in
labeled/joint files column 0 is the response or binary label and the
remaining columns are features.

Each handler passes its flags to the library as they are, and the library
reads them as it reads any argument (a sidedness, a correction, the
one-column pivotal sample, a labeled file, label column and all). Every output
document echoes its command in its config. ``verify-report`` reads any of
the four report kinds (test, pivotal, intervals, coverage) and checks what
that kind's ``is_consistent`` can re-derive.

The argument parser is built once per process and reused by every
:func:`main` call.

Exit codes: 0 success, 2 usage error, 3 data error (including an input file
that cannot be read, an output file that cannot be written and a size that
cannot be allocated), 4 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import dataio
from .empirical import Correction, Sidedness
from .errors import InputError, NumericError
from .generators import KINDS, PassConfig, fit_model, load_model, pass_synthesize, save_model
from .inference import (
    TestReport,
    pivotal_inference,
    test_conditional_coherence,
    test_feature_significance,
    test_two_sample_fid,
)
from .perturb import PerturbationSpec
from .predict import IntervalsDocument, pai_interval, run_prediction_study, simulate_regression_data

# verify-report states the null CDF's DKW band at confidence 1 - DKW_DELTA.
DKW_DELTA = 0.05


class UsageError(Exception):
    """A handler-level usage problem (bad flag combination)."""


def _mc_count(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("Monte Carlo size must be at least 2")
    return value


def _cfg(args, rank_match: bool = False) -> PassConfig:
    return PassConfig(
        perturbation=PerturbationSpec(tau=args.tau),
        rank_match=rank_match,
        mc_seed=args.seed,
    )


def cmd_fit(args) -> int:
    model = fit_model(args.kind, dataio.read_matrix(args.input, args.header))
    save_model(model, args.out)
    print(
        f"fit: kind={model.kind} dim={model.dim} rows={model.fit_info.n_rows} "
        f"hash={model.fit_info.data_hash[:12]} -> {args.out}"
    )
    return 0


def cmd_synthesize(args) -> int:
    model = load_model(args.model)
    if args.rank_match and args.input is None:
        raise UsageError("--rank-match requires --input with the inference sample")
    if not args.rank_match and args.n is None:
        raise UsageError("provide --n (or --rank-match with --input)")
    inference = dataio.read_matrix(args.input, args.header) if args.rank_match else None
    cfg = _cfg(args, rank_match=args.rank_match)
    sample = pass_synthesize(model, inference, cfg, replicate=args.replicate, n=args.n)
    dataio.write_matrix(args.out, sample)
    print(f"synthesize: {sample.shape[0]}x{sample.shape[1]} tau={args.tau} -> {args.out}")
    return 0


def _finish(document: dataio.Document, args, line: str, **extra) -> None:
    """Save ``document`` to ``--out`` with the command echoed in its config, and print ``line``."""
    echo = {"schema_version": 1, "command": args.command, "seed": args.seed, **extra}
    dataclasses.replace(document, config={**document.config, **echo}).save(args.out)
    print(f"{args.command}: {line} -> {args.out}")


def cmd_test_fid(args) -> int:
    reference = dataio.read_matrix(args.input, args.header)
    candidate = dataio.read_matrix(args.candidate, args.header)
    model = load_model(args.model)
    report = test_two_sample_fid(
        reference,
        candidate,
        model,
        D=args.mc,
        cfg=_cfg(args),
        sidedness=args.sided,
        correction=args.correction,
    )
    _finish(report, args, report.summary(), input=args.input, candidate=args.candidate, model=args.model)
    return 0


def cmd_test_feature(args) -> int:
    train = dataio.read_matrix(args.input, args.header)
    inference = dataio.read_matrix(args.inference, args.header)
    model = load_model(args.model)
    try:
        mask = [int(part) for part in args.mask.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"--mask must be comma-separated integers, got {args.mask!r}")
    if not mask:
        raise UsageError("--mask must name at least one feature index")
    report = test_feature_significance(
        train,
        inference,
        mask,
        model,
        D=args.mc,
        cfg=_cfg(args),
        correction=args.correction,
    )
    _finish(report, args, report.summary(), input=args.input, inference=args.inference, model=args.model)
    return 0


def cmd_test_coherence(args) -> int:
    group1 = dataio.read_matrix(args.input, args.header)
    group2 = dataio.read_matrix(args.input2, args.header)
    model1 = load_model(args.model)
    model2 = load_model(args.model2) if args.model2 else model1
    report = test_conditional_coherence(
        group1,
        group2,
        model1,
        model2,
        D=args.mc,
        cfg=_cfg(args),
        correction=args.correction,
    )
    _finish(
        report, args, report.summary(), input=args.input, input2=args.input2, model=args.model, model2=args.model2
    )
    return 0


def cmd_test_pivotal(args) -> int:
    report = pivotal_inference(
        dataio.read_matrix(args.input, args.header),
        D=args.mc,
        cfg=_cfg(args),
        alpha=args.alpha,
        theta0=args.theta0,
        sigma=args.sigma,
        sidedness=args.sided,
        correction=args.correction,
    )
    _finish(report, args, report.summary(), input=args.input)
    return 0


def cmd_simulate(args) -> int:
    data = simulate_regression_data(args.n, args.seed)
    dataio.write_matrix(args.out, data)
    print(f"simulate: {args.n} rows (response + {data.shape[1] - 1} features) -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    points = dataio.read_matrix(args.input, args.header)
    iv = pai_interval(model, points, args.alpha, args.mc, _cfg(args))
    document = IntervalsDocument.build(points, iv, args.alpha, args.mc, args.tau)
    _finish(document, args, f"{len(points)} intervals at alpha={args.alpha}", model=args.model, input=args.input)
    return 0


def cmd_coverage(args) -> int:
    study = run_prediction_study(
        seed=args.seed,
        n_total=args.n,
        n_train=args.train,
        alpha=args.alpha,
        kind=args.kind,
        tau=args.tau,
        pai_draws=args.mc,
    )
    line = (
        "median={median_coverage:.3f} mean={mean_coverage:.3f} "
        "conformal_mean={baseline_mean_coverage:.3f} shorter_fraction={shorter_fraction:.3f}"
    )
    _finish(study, args, line.format(**study.summary))
    return 0


def cmd_verify_report(args) -> int:
    report = dataio.Document.load(args.input)
    if not report.is_consistent():
        raise InputError(f"{args.input}: the stored {report.schema} results do not re-derive")
    if not isinstance(report, TestReport):
        print(f"verify: ok ({report.schema} results re-derive)")
        return 0
    D, p = report.null_draws.size, report.p_value
    print(f"verify: ok ({report.test_name} report reproduces from {D} draws)")
    # Precision of the stored result: the Monte Carlo standard error of the
    # p-value (none without a tested null value), and the DKW/Massart
    # half-width of the null CDF's uniform band.
    se_text = "n/a" if p is None else f"{math.sqrt(p * (1.0 - p) / D):.6g}"
    print(
        f"precision: Monte Carlo SE of p = {se_text}, "
        f"DKW half-width of the null CDF = {math.sqrt(math.log(2.0 / DKW_DELTA) / (2.0 * D)):.6g} "
        f"(delta = {DKW_DELTA}, D = {D})"
    )
    return 0


def _add_common(sub, *, header=True, tau=False, mc=False, alpha=False):
    sub.add_argument("--seed", type=int, required=True, help="master random seed (mandatory)")
    sub.add_argument("--out", required=True, help="output file path")
    if header:
        sub.add_argument("--header", action="store_true", help="skip one header line in CSV inputs")
    if tau:
        sub.add_argument("--tau", type=float, default=0.0, help="perturbation size (default 0)")
    if mc:
        sub.add_argument("--mc", type=_mc_count, required=True, help="Monte Carlo replicate count D")
    if alpha:
        sub.add_argument("--alpha", type=float, default=0.05, help="level (default 0.05)")


def _add_test_flags(sub, sided=True):
    sub.add_argument("--correction", choices=sorted(c.value for c in Correction), default="plus-one")
    if sided:
        sub.add_argument("--sided", choices=sorted(s.value for s in Sidedness), default="two")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it).

    Each subcommand ``name`` runs the module's ``cmd_<name>`` handler (dashes
    become underscores), looked up when :func:`main` calls it.
    """
    parser = argparse.ArgumentParser(
        prog="pai",
        description="Synthetic-sample Monte Carlo inference over CSV files.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("fit", help="fit a generator model from a CSV sample")
    sub.add_argument("--input", required=True)
    sub.add_argument("--kind", choices=KINDS, default="gaussian")
    _add_common(sub)

    sub = commands.add_parser("synthesize", help="draw one synthetic sample from a model")
    sub.add_argument("--model", required=True)
    sub.add_argument("--input", help="inference sample (required with --rank-match)")
    sub.add_argument("--n", type=int, help="sample size when not rank matching")
    sub.add_argument("--rank-match", action="store_true")
    sub.add_argument("--replicate", type=int, default=0, help="replicate stream index (default 0)")
    _add_common(sub, tau=True)

    sub = commands.add_parser("test-fid", help="distribution test of candidate vs reference")
    sub.add_argument("--input", required=True, help="reference sample CSV")
    sub.add_argument("--candidate", required=True, help="candidate sample CSV")
    sub.add_argument("--model", required=True)
    _add_common(sub, tau=True, mc=True)
    _add_test_flags(sub)

    sub = commands.add_parser("test-feature", help="feature-significance test (label column 0)")
    sub.add_argument("--input", required=True, help="train CSV: label, features...")
    sub.add_argument("--inference", required=True, help="inference CSV: label, features...")
    sub.add_argument("--model", required=True, help="joint model over (label, features)")
    sub.add_argument("--mask", required=True, help="comma-separated feature indices to mask")
    _add_common(sub, tau=True, mc=True)
    _add_test_flags(sub, sided=False)

    sub = commands.add_parser("test-coherence", help="two-condition coherence test")
    sub.add_argument("--input", required=True, help="group 1 CSV")
    sub.add_argument("--input2", required=True, help="group 2 CSV")
    sub.add_argument("--model", required=True, help="condition 1 generator")
    sub.add_argument("--model2", help="condition 2 generator (default: same as --model)")
    _add_common(sub, tau=True, mc=True)
    _add_test_flags(sub, sided=False)

    sub = commands.add_parser("test-pivotal", help="pivotal mean inference on a 1-column CSV")
    sub.add_argument("--input", required=True)
    sub.add_argument("--theta0", type=float, help="null value of the mean (optional)")
    sub.add_argument("--sigma", type=float, help="known scale (switches to the known-scale pivot)")
    _add_common(sub, tau=True, mc=True, alpha=True)
    _add_test_flags(sub)

    sub = commands.add_parser("simulate", help="simulate the benchmark regression dataset")
    sub.add_argument("--n", type=int, required=True)
    _add_common(sub, header=False)

    sub = commands.add_parser("predict", help="Monte Carlo prediction intervals at given points")
    sub.add_argument("--model", required=True, help="joint model over (response, features)")
    sub.add_argument("--input", required=True, help="CSV of feature rows")
    _add_common(sub, tau=True, mc=True, alpha=True)

    sub = commands.add_parser("coverage", help="end-to-end interval coverage study")
    sub.add_argument("--n", type=int, default=3200, help="total simulated rows (default 3200)")
    sub.add_argument("--train", type=int, default=3000, help="training rows (default 3000)")
    sub.add_argument("--kind", choices=KINDS, default="copula")
    sub.add_argument("--mc", type=_mc_count, default=4000, help="conditional draws per point (default 4000)")
    _add_common(sub, header=False, tau=True, alpha=True)

    sub = commands.add_parser("verify-report", help="re-derive a stored report's results")
    sub.add_argument("--input", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        # Looked up per call, so a handler replaced on this module is the one that runs.
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        # An overflow is reported by the one error line of the check that
        # catches it, not by numpy's floating-point warnings before it.
        with np.errstate(all="ignore"):
            return int(handler(args) or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        # A size argument asked for more memory than the machine can give.
        print(f"data error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # Every input is read through a loader that raises InputError, so
        # this is an output file that cannot be written.
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
