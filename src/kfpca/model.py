"""End-to-end fit pipeline and model persistence.

A fit runs each stage once, on arrays: optional pre-smoothing (a GCV
bandwidth per curve), mean estimation, a kernel estimate (pairwise sign-based
or sample covariance) with its one weighted eigensolve, the cut at K
components, the K x d array of kept eigenfunctions (optionally smoothed),
score projection, and per-component score variances.  ``_fit_arrays`` runs
those stages and returns arrays; ``fit`` wraps them into an ``FpcaModel``,
building the K eigenfunction ``Curve`` objects once, while a Monte Carlo
run scores the arrays and builds no model.
The fitted object serializes to a single JSON document.
"""

import json
import numbers
import os
import tempfile
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .core import (
    Curve,
    FunctionalSample,
    Grid,
    _check_bandwidth,
    _check_count,
    _check_non_negative,
    _frozen_array,
    smooth_rows,
)
from .eigen import eigen_decompose, project_scores
from .errors import ConfigurationError, DimensionError, InputError, KfpcaError, ParseError
from .estimators import covariance_hat, kendall_tau_hat, mean_hat

KFPCA = "kfpca"
COV = "cov"
METHODS = (KFPCA, COV)

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class FitConfig:
    """Options controlling a fit.

    ``n_components`` is either an integer count or a real in (0, 1) read
    as a fraction-of-variance-explained threshold on the decomposed
    spectrum, stored as a Python int or float.  The two flags are bools (a
    numpy bool is stored as one), and each bandwidth is "auto" or a positive
    number.  ``seed`` is carried along for downstream resampling only; the
    fit itself is deterministic.
    """

    method: str = KFPCA
    n_components: int | float = 0.95
    presmooth: bool = False
    presmooth_bandwidth: float | str = "auto"
    eigen_smooth: bool = False
    eigen_bandwidth: float | str = "auto"
    degenerate_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        n = self.n_components
        count = isinstance(n, numbers.Integral) and not isinstance(n, bool)
        if count and n >= 1:
            n = int(n)
        elif not count and isinstance(n, numbers.Real) and 0.0 < n < 1.0:
            n = float(n)
        else:
            raise ConfigurationError(
                "n_components must be a count >= 1 or a threshold in (0, 1)"
            )
        _check_non_negative("degenerate_tol", self.degenerate_tol)
        _check_count("seed", self.seed, 0)
        for name in ("presmooth", "eigen_smooth"):
            flag = getattr(self, name)
            if not isinstance(flag, (bool, np.bool_)):
                raise ConfigurationError(f"{name} must be a bool, got {flag!r}")
            object.__setattr__(self, name, bool(flag))
        for name in ("presmooth_bandwidth", "eigen_bandwidth"):
            object.__setattr__(self, name, _check_bandwidth(name, getattr(self, name)))
        # numpy scalars pass the checks but not json.dumps in save_model
        object.__setattr__(self, "n_components", n)
        object.__setattr__(self, "degenerate_tol", float(self.degenerate_tol))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True, eq=False)
class FpcaModel:
    """A fitted functional PCA model."""

    grid: Grid
    mean: Curve
    eigenfunctions: tuple[Curve, ...]
    operator_eigenvalues: np.ndarray
    component_variances: np.ndarray
    scores: np.ndarray
    method: str
    config: FitConfig
    # spectrum mass beyond the kept components, so FVE survives truncation
    _spectrum_remainder: float = 0.0

    def __post_init__(self):
        for name in ("operator_eigenvalues", "component_variances", "scores"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        object.__setattr__(self, "eigenfunctions", tuple(self.eigenfunctions))
        k = len(self.eigenfunctions)
        if self.method != self.config.method:
            raise ConfigurationError(
                f"method {self.method!r} disagrees with config.method {self.config.method!r}"
            )
        if not all(c.grid.matches(self.grid) for c in (self.mean, *self.eigenfunctions)):
            raise DimensionError("mean and eigenfunctions must lie on the model grid")
        if self.operator_eigenvalues.shape != (k,) or self.component_variances.shape != (k,):
            raise DimensionError(f"need {k} operator eigenvalues and {k} component variances")
        if self.scores.ndim != 2 or self.scores.shape[1] != k:
            raise DimensionError(f"scores must be an N x {k} matrix")
        ev, var = self.operator_eigenvalues, self.component_variances
        if (ev[1:] > ev[:-1]).any():
            raise InputError("operator eigenvalues must be non-increasing")
        if not all(np.isfinite(a).all() for a in (ev, var, self.scores)):
            raise InputError("eigenvalues, component variances and scores must be finite")
        if (var < 0).any():
            raise InputError("component variances must be non-negative")

    @property
    def n_components(self) -> int:
        return len(self.eigenfunctions)

    @property
    def n_subjects(self) -> int:
        return int(self.scores.shape[0])

    def fraction_variance_explained(self) -> float:
        """Share of the decomposed spectrum carried by the kept components."""
        total = float(self.operator_eigenvalues.sum()) + float(
            self._spectrum_remainder
        )
        if total == 0:
            return 1.0
        return float(self.operator_eigenvalues.sum()) / total


def _select_k(eigenvalues: np.ndarray, n_components: int | float) -> int:
    if isinstance(n_components, int):
        return n_components
    total = float(eigenvalues.sum())
    if total <= 0:
        raise ConfigurationError("spectrum has no positive mass; cannot apply FVE")
    fve = np.cumsum(eigenvalues) / total
    hits = np.nonzero(fve >= n_components)[0]
    if hits.size == 0:
        raise ConfigurationError(
            f"FVE threshold {n_components} unreachable (max {fve[-1]:.6f})"
        )
    return int(hits[0]) + 1


class _FitArrays(NamedTuple):
    """One fit as arrays, before any model is built."""

    grid: Grid
    mean: Curve
    phi: np.ndarray  # K x d, row k holds phi_k on the grid
    eigenvalues: np.ndarray  # the K kept operator eigenvalues
    scores: np.ndarray  # N x K
    remainder: float  # spectrum mass beyond the kept components


def _fit_arrays(sample: FunctionalSample, config: FitConfig) -> _FitArrays:
    """Each stage of a fit once, on arrays; ``fit`` wraps the result into a
    model and a Monte Carlo run scores it directly."""
    if sample.n_subjects < 3:
        raise InputError("fit needs at least 3 curves")
    if sample.grid.size < 4:
        raise InputError("fit needs at least 4 grid points")

    if config.presmooth:
        sample = FunctionalSample(
            sample.grid,
            smooth_rows(sample.grid, sample.values, config.presmooth_bandwidth),
        )

    mean = mean_hat(sample)
    if config.method == KFPCA:
        kernel = kendall_tau_hat(sample, config.degenerate_tol)
    else:
        kernel = covariance_hat(sample)

    k = _select_k(kernel.eigenvalues, config.n_components)
    phi = eigen_decompose(
        kernel, k, smooth=config.eigen_smooth, bandwidth=config.eigen_bandwidth
    )
    scores = project_scores(sample, mean, phi)
    ev = kernel.eigenvalues
    return _FitArrays(sample.grid, mean, phi, ev[:k], scores, float(ev[k:].sum()))


def fit(sample: FunctionalSample, config: FitConfig) -> FpcaModel:
    """Fit a functional PCA model to a dense sample.

    Parameters
    ----------
    sample : FunctionalSample
        At least 3 curves on at least 4 grid points.
    config : FitConfig
        Method and options; see FitConfig.

    Returns
    -------
    FpcaModel
        Mean, eigenfunctions, operator eigenvalues, score matrix, and
        per-component score variances (divisor N - 1), ordered by the
        decomposed spectrum.
    """
    run = _fit_arrays(sample, config)
    return FpcaModel(
        grid=run.grid,
        mean=run.mean,
        eigenfunctions=tuple(Curve(run.grid, row) for row in run.phi),
        operator_eigenvalues=run.eigenvalues,
        component_variances=run.scores.var(axis=0, ddof=1),
        scores=run.scores,
        method=config.method,
        config=config,
        _spectrum_remainder=run.remainder,
    )


def reconstruct(model: FpcaModel, subject: int, n_components: int) -> Curve:
    """Truncated expansion mean + sum_k score_ik phi_k for one subject."""
    if isinstance(subject, bool) or not isinstance(subject, numbers.Integral):
        raise InputError(f"subject index must be an integer, got {subject!r}")
    if not 0 <= subject < model.n_subjects:
        raise InputError(
            f"subject index {subject} out of range [0, {model.n_subjects})"
        )
    _check_count("reconstruction order", n_components, 0)
    if n_components > model.n_components:
        raise ConfigurationError(
            f"reconstruction order must lie in [0, {model.n_components}]"
        )
    values = model.mean.values.copy()
    for k in range(n_components):
        values += model.scores[subject, k] * model.eigenfunctions[k].values
    return Curve(model.grid, values)


def _config_from_doc(doc: dict) -> FitConfig:
    """The saved config, each field checked as it was read, not coerced."""
    return FitConfig(**{f.name: doc[f.name] for f in fields(FitConfig)})


def serialize_model(model: FpcaModel) -> dict:
    """JSON-compatible document for a fitted model.

    Floats survive a JSON round trip bit-exactly (shortest-repr encoding
    preserves full double precision).
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "method": model.method,
        "grid": {"points": model.grid.points.tolist()},
        "mean": model.mean.values.tolist(),
        "eigenvalues_operator": model.operator_eigenvalues.tolist(),
        "component_variances": model.component_variances.tolist(),
        "eigenfunctions": [c.values.tolist() for c in model.eigenfunctions],
        "scores": model.scores.tolist(),
        "spectrum_remainder": model._spectrum_remainder,
        "config": asdict(model.config),
    }


def _parse(path: str, build):
    """``build()``, with a missing key or a value its constructor rejects
    reported as a ParseError at ``path``."""
    where = path or "model"
    try:
        return build()
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc.args[0]!r}", path=path)
    except (KfpcaError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}", path=path)


def deserialize_model(doc: dict) -> FpcaModel:
    """Rebuild a model from its document: each field through its own
    constructor, then the model through FpcaModel's invariants.

    Raises
    ------
    ParseError
        Missing, malformed or inconsistent fields; ``path`` names the
        offending field, or is empty when the fields disagree.
    """
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object", path="")
    version = _parse("schema_version", lambda: doc["schema_version"])
    if version != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema_version {version!r}", path="schema_version"
        )

    def array(key):
        return _parse(key, lambda: np.asarray(doc[key], dtype=float))

    grid = _parse("grid", lambda: Grid.from_points(doc["grid"]["points"]))
    mean = _parse("mean", lambda: Curve(grid, doc["mean"]))
    funcs = _parse(
        "eigenfunctions",
        lambda: tuple(Curve(grid, row) for row in doc["eigenfunctions"]),
    )
    eigenvalues = array("eigenvalues_operator")
    variances = array("component_variances")
    scores = array("scores")
    method = _parse("method", lambda: doc["method"])
    config = _parse("config", lambda: _config_from_doc(doc["config"]))
    remainder = _parse(
        "spectrum_remainder", lambda: float(doc.get("spectrum_remainder", 0.0))
    )
    return _parse(
        "",
        lambda: FpcaModel(
            grid=grid,
            mean=mean,
            eigenfunctions=funcs,
            operator_eigenvalues=eigenvalues,
            component_variances=variances,
            scores=scores,
            method=method,
            config=config,
            _spectrum_remainder=remainder,
        ),
    )


def atomic_write(path, write) -> None:
    """Write ``path`` through ``write(fh)`` into a temporary file beside it,
    renamed over ``path`` once ``write`` returns; a failure leaves ``path``
    as it was and removes the temporary file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(model: FpcaModel, path) -> None:
    """Write the model document as one line of JSON, atomically."""

    # one C-encoded string: json.dump would stream the document through
    # the pure-Python encoder, several times slower, to the same bytes
    text = json.dumps(serialize_model(model)) + "\n"
    atomic_write(path, lambda fh: fh.write(text))


def load_model(path) -> FpcaModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also a UnicodeDecodeError
            raise ParseError(f"invalid JSON in {path}: {exc}", path="")
    return deserialize_model(doc)
