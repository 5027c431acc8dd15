"""Command-line interface.

Subcommands: ``fit`` (model a CSV dataset), ``simulate`` (reproduce a
Monte Carlo table row), ``mean-band`` (bootstrap band for the mean curve),
and ``rate`` (sup-norm convergence diagnostic).  Exit codes: 0 success,
2 bad input or configuration, 3 numerical/fit failure.  ``main`` alone
maps an error to its code, by its class: an EstimationError exits 3;
every other KfpcaError, and an OSError from reading or writing a
user path, exits 2.  Output files are written to a temporary path and
renamed on success.
"""

import argparse
import csv
import sys
import warnings

import numpy as np

from .core import _PAIR_TILE, FunctionalSample, Grid, _readonly
from .errors import ConfigurationError, EstimationError, KfpcaError, ParseError
from .estimators import bootstrap_mean_band
from .metrics import METRIC_NAMES, aggregate, convergence_rate, run_scenario
from .model import METHODS, FitConfig, atomic_write, fit, save_model
from .simgen import CASES, SimulationScenario

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def read_dataset(path) -> FunctionalSample:
    """Parse a dataset CSV: header = grid times (optional leading "id"
    column), one row of observations per subject.

    numpy's C text reader converts the data rows.  A file it refuses is
    parsed again row by row, which takes every spelling Python's ``float``
    takes and names a refused cell by line and column."""
    sample = _read_dataset(path, fast=True)
    if sample is None:
        sample = _read_dataset(path, fast=False)
    return sample


def _read_dataset(path, fast: bool) -> FunctionalSample | None:
    """The sample in the file at ``path``, its rows read by numpy's C reader
    if ``fast`` (None if that reader refuses them) and row by row if not."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            rows = csv.reader(fh)
            grid, start = _parse_header(path, rows)
            if fast:
                values = _load_rows(fh, grid.size, start)
            else:
                values = _parse_rows(path, rows, grid.size, start)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ParseError(f"{path}: cannot read as UTF-8 CSV: {exc}", path=str(path))
    return None if values is None else FunctionalSample(grid, values)


def _parse_header(path, rows) -> tuple[Grid, int]:
    """The grid in the first of CSV ``rows``, and 1 if an "id" column leads
    the file, else 0."""
    header = next(rows, None)
    if header is None:
        raise ParseError(f"dataset file {path} is empty", path=str(path))
    start = 1 if header and header[0].strip().lower() == "id" else 0
    try:
        return Grid(list(_parse_cells(path, header, 1, start))), start
    except ConfigurationError as exc:
        raise ParseError(f"{path}: bad grid header: {exc}", path=str(path))


def _parse_cells(path, row, line, start):
    """The cells of ``row`` from column ``start`` on, each as a float; a
    ParseError names the first that is not a number."""
    for col, text in enumerate(row[start:], start + 1):
        try:
            yield float(text)
        except ValueError:
            raise ParseError(
                f"{path}: line {line}, column {col}: {text!r} is not a number",
                path=str(path),
            )


def _load_rows(fh, d, start) -> np.ndarray | None:
    """The rest of ``fh`` as a read-only N x d array by numpy's C text
    reader, or None if that reader refuses it or finds no rows.  The id
    column is converted to zeros rather than left out with ``usecols``,
    which would also drop a cell past the last grid time.  The reader's
    array is handed over; an id column is squeezed out of it in place, one
    ``_PAIR_TILE``-row block at a time (a block's rows move only over its
    own, so numpy buffers one block), and the array shrinks to N x d."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            values = np.loadtxt(
                fh, delimiter=",", quotechar='"', comments=None, ndmin=2,
                converters={0: lambda _: 0.0} if start else None,
            )
    except (ValueError, UserWarning):
        return None
    if values.shape[1] != d + start:
        return None
    if start:
        n = len(values)
        flat = values.reshape(-1)
        for i0 in range(0, n, _PAIR_TILE):
            rows = values[i0 : i0 + _PAIR_TILE, 1:]
            np.copyto(flat[i0 * d : (i0 + len(rows)) * d].reshape(rows.shape), rows)
        del flat, rows
        values.resize((n, d), refcheck=False)
    return _readonly(values)


def _parse_rows(path, rows, d, start) -> np.ndarray:
    """The remaining CSV ``rows`` as a read-only N x d array, each row
    converted as it is read into one buffer that grows in place by half
    its rows when full and shrinks to N rows at the end; blank rows are
    skipped."""
    values = np.empty((0, d))
    n = 0
    for row in rows:
        if not row:
            continue
        if len(row) - start != d:
            raise ParseError(
                f"{path}: line {rows.line_num}: expected {d + start} cells, got {len(row)}",
                path=str(path),
            )
        if n == len(values):
            values.resize((n + n // 2 + 1, d), refcheck=False)
        try:
            values[n] = np.fromiter(map(float, row[start:]), float, count=d)
        except ValueError:  # parse again cell by cell to name the bad one
            values[n] = np.fromiter(_parse_cells(path, row, rows.line_num, start), float, d)
        n += 1
    values.resize((n, d), refcheck=False)
    return _readonly(values)


def _write_csv(path, header, rows):
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    atomic_write(path, write)


def _parse_ncomp(text: str):
    try:
        return float(text) if any(c in text for c in ".eE") else int(text)
    except ValueError:
        raise ConfigurationError(f"--ncomp must be a count or a fraction, got {text!r}")


def _smoother(flag: bool, bandwidth: str | None):
    """A smoother's setting: its bandwidth option if given, a number as a
    float and other text as it is, for FitConfig to check; else its flag."""
    if bandwidth is None:
        return flag
    try:
        return float(bandwidth)
    except ValueError:
        return bandwidth


def _parse_methods(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise ConfigurationError(f"--sizes must be a comma list of integers, got {text!r}")


def cmd_fit(args) -> int:
    """Check the options, then fit the dataset and save the model.

    The sample read from the file is handed to ``fit`` and not kept here:
    CPython 3.11 and later move a call's arguments into the callee's frame,
    so once ``fit`` rebinds its ``sample`` to the presmoothed one, the raw
    curves are freed and the kernel stage holds one N x d matrix of curves,
    not two."""
    config = FitConfig(
        method=args.method,
        n_components=_parse_ncomp(args.ncomp),
        presmooth=_smoother(args.presmooth, args.presmooth_bandwidth),
        eigen_smooth=_smoother(args.eigen_smooth, args.eigen_bandwidth),
    )
    model = fit(read_dataset(args.input), config)
    save_model(model, args.out)
    variances = " ".join(f"{v:.6g}" for v in model.component_variances)
    print(f"components: {model.n_components}")
    print(f"fve: {model.fraction_variance_explained():.6f}")
    print(f"component_variances: {variances}")
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    methods = _parse_methods(args.methods)
    scenario = SimulationScenario(
        case=args.case,
        distribution=args.dist.strip().lower().replace("-", "_"),
        n_subjects=args.n,
        n_points=args.grid,
        sigma2=args.sigma2,
        runs=args.runs,
        seed=args.seed,
    )
    results = run_scenario(scenario, methods)
    rows = []
    for method in methods:
        table = aggregate(results[method])
        for metric in METRIC_NAMES:
            mean, sd = table[metric]
            rows.append(
                [
                    scenario.case,
                    scenario.distribution,
                    method,
                    metric,
                    repr(mean),
                    repr(sd),
                    scenario.runs,
                    scenario.seed,
                ]
            )
    _write_csv(
        args.out,
        ["case", "distribution", "method", "metric", "mean", "sd", "runs", "seed"],
        rows,
    )
    for row in rows:
        print(
            f"case {row[0]} {row[1]} {row[2]:>5s} {row[3]:>5s}: "
            f"mean {float(row[4]):.4f} sd {float(row[5]):.4f}"
        )
    print(f"results written to {args.out}")
    return EXIT_OK


def cmd_mean_band(args) -> int:
    sample = read_dataset(args.input)
    band = bootstrap_mean_band(sample, args.level, args.reps, args.seed)
    rows = [
        [repr(float(t)), repr(float(m)), repr(float(lo)), repr(float(hi))]
        for t, m, lo, hi in zip(
            sample.grid.points, band.mean.values, band.lower.values, band.upper.values
        )
    ]
    _write_csv(args.out, ["t", "mean", "lower", "upper"], rows)
    print(f"band written to {args.out}")
    return EXIT_OK


def cmd_rate(args) -> int:
    scenario = SimulationScenario(seed=args.seed)
    diag = convergence_rate(scenario, _parse_sizes(args.sizes), args.reps)
    rows = [
        [n, repr(float(err)), repr(diag.fitted_slope)]
        for n, err in zip(diag.sample_sizes, diag.sup_errors)
    ]
    _write_csv(args.out, ["n", "mean_sup_error", "fitted_slope"], rows)
    print(f"fitted slope: {diag.fitted_slope:.4f}")
    print(f"rate table written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfpca",
        description="Functional PCA via the pairwise sign-based kernel estimator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a dataset CSV")
    p_fit.add_argument("input", help="dataset CSV (header = grid times)")
    p_fit.add_argument("--method", default="kfpca", help="one of: " + ", ".join(METHODS))
    p_fit.add_argument(
        "--ncomp", default="0.95",
        help="component count, or a fraction in (0,1) for FVE selection",
    )
    p_fit.add_argument("--presmooth", action="store_true")
    p_fit.add_argument("--presmooth-bandwidth", metavar="H", help="presmooth at H (or 'auto')")
    p_fit.add_argument("--eigen-smooth", action="store_true")
    p_fit.add_argument("--eigen-bandwidth", metavar="H", help="eigen-smooth at H (or 'auto')")
    p_fit.add_argument("--out", required=True, help="model JSON output path")
    p_fit.set_defaults(handler=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    p_sim.add_argument(
        "--case", type=int, default=1, help="one of: " + ", ".join(map(str, CASES))
    )
    p_sim.add_argument("--dist", default="gaussian")
    p_sim.add_argument("--n", type=int, default=100, help="subjects per run")
    p_sim.add_argument("--grid", type=int, default=51, help="grid points")
    p_sim.add_argument("--sigma2", type=float, default=0.25)
    p_sim.add_argument("--runs", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--methods", default="kfpca,cov")
    p_sim.add_argument("--out", required=True, help="results CSV output path")
    p_sim.set_defaults(handler=cmd_simulate)

    p_band = sub.add_parser("mean-band", help="bootstrap band for the mean curve")
    p_band.add_argument("input", help="dataset CSV")
    p_band.add_argument("--level", type=float, default=0.9)
    p_band.add_argument("--reps", type=int, default=1000)
    p_band.add_argument("--seed", type=int, default=0)
    p_band.add_argument("--out", required=True, help="band CSV output path")
    p_band.set_defaults(handler=cmd_mean_band)

    p_rate = sub.add_parser("rate", help="sup-norm convergence diagnostic")
    p_rate.add_argument("--sizes", default="50,100,200,400")
    p_rate.add_argument("--reps", type=int, default=20)
    p_rate.add_argument("--seed", type=int, default=0)
    p_rate.add_argument("--out", required=True, help="rate CSV output path")
    p_rate.set_defaults(handler=cmd_rate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.handler(args)
    except (KfpcaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, EstimationError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
