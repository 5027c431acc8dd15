"""End-to-end fit pipeline and model persistence.

A fit runs each stage once, on arrays: optional pre-smoothing (a GCV
bandwidth per curve), mean estimation, a kernel estimate (pairwise sign-based
or sample covariance), optionally smoothed as a surface, with its one
weighted eigensolve, the cut at K components, the K x d array of kept
eigenfunctions, and score projection.  ``fit`` returns them as an
``FpcaModel``, the one record of a fit, which the CLI saves and a Monte
Carlo run scores.  A model
stores each fact once: its eigenfunctions as one K x d array on its mean's
grid, its method as its config's, and its per-component score variances as
computed from its scores; ``grid`` and the eigenfunction ``Curve`` objects
are derived on access.  It serializes to a single JSON document (schema 3;
schema-1 and schema-2 documents load).
"""

import json
import math
import numbers
import os
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import (
    _PAIR_TILE,
    Curve,
    FunctionalSample,
    Grid,
    _check_bandwidth,
    _check_count,
    _check_index,
    _float_array,
    _frozen_array,
    _readonly,
    smooth_rows,
)
from .errors import ConfigurationError, DimensionError, InputError, KfpcaError, ParseError
from .estimators import (
    DEGENERATE_TOL,
    covariance_hat,
    kendall_tau_hat,
    mean_hat,
    smooth_kernel,
)

KFPCA = "kfpca"
COV = "cov"
METHODS = (KFPCA, COV)

SCHEMA_VERSION = "3"
# schema 1 also stored "method", "component_variances" and "config.seed",
# which a model derives or no longer has; a schema-1 document loads with
# those keys unread
_READABLE_VERSIONS = ("1", "2", SCHEMA_VERSION)


@dataclass(frozen=True)
class FitConfig:
    """Options controlling a fit.

    ``n_components`` is either an integer count or a real in (0, 1) read
    as a fraction-of-variance-explained threshold on the decomposed
    spectrum, stored as a Python int or float.  Each smoother is None
    (off), "auto" (GCV: a bandwidth per curve for ``presmooth``, one for
    the kernel surface for ``eigen_smooth``) or a positive bandwidth stored
    as a float; True reads as "auto" and False as None, numpy's bools too.
    A fit is deterministic given its sample and config.
    """

    method: str = KFPCA
    n_components: int | float = 0.95
    presmooth: float | str | None = None
    eigen_smooth: float | str | None = None

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
        # numpy scalars pass the checks but not json.dumps in save_model
        object.__setattr__(self, "n_components", n)
        for name in ("presmooth", "eigen_smooth"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                value = "auto" if value else None
            elif value is not None:
                value = _check_bandwidth(name, value)
            object.__setattr__(self, name, value)


def _all_finite(values: np.ndarray) -> bool:
    """Whether every element is finite; on the small arrays of a model,
    counting is cheaper than ``np.isfinite(values).all()``."""
    return np.count_nonzero(np.isfinite(values)) == values.size


def _eigenfunction_array(grid: Grid, values) -> np.ndarray:
    """``values`` as a read-only K x d array of finite numbers, K >= 1 and d
    the size of ``grid``; DimensionError or InputError otherwise."""
    rows = _frozen_array(values)
    if rows.ndim != 2 or not len(rows) or rows.shape[1] != grid.size:
        raise DimensionError(
            f"eigenfunctions must be a K x {grid.size} matrix with K >= 1"
        )
    if not _all_finite(rows):
        raise InputError("eigenfunction values must be finite")
    return rows


@dataclass(frozen=True, eq=False)
class FpcaModel:
    """A fitted functional PCA model: each fact stored once.  The
    eigenfunctions are one K x d array on the mean's grid; the grid, the
    eigenfunction curves, the method and the score variances are derived."""

    mean: Curve
    eigenfunction_values: np.ndarray  # K x d, row k holds phi_k on the grid
    operator_eigenvalues: np.ndarray
    scores: np.ndarray
    config: FitConfig
    # spectrum mass beyond the kept components, so FVE survives truncation
    _spectrum_remainder: float = 0.0

    def __post_init__(self):
        phi = _eigenfunction_array(self.grid, self.eigenfunction_values)
        ev = _frozen_array(self.operator_eigenvalues)
        scores = _frozen_array(self.scores)
        object.__setattr__(self, "eigenfunction_values", phi)
        object.__setattr__(self, "operator_eigenvalues", ev)
        object.__setattr__(self, "scores", scores)
        k = len(phi)
        if ev.shape != (k,):
            raise DimensionError(f"need {k} operator eigenvalues")
        # N >= 2 keeps component_variances (divisor N - 1) defined
        if scores.ndim != 2 or scores.shape[0] < 2 or scores.shape[1] != k:
            raise DimensionError(f"scores must be an N x {k} matrix with N >= 2")
        # K is small, so the eigenvalues are checked as Python floats: a
        # numpy call costs more than the work on a few elements
        values = ev.tolist()
        if any(b > a for a, b in zip(values, values[1:])):
            raise InputError("operator eigenvalues must be non-increasing")
        if not (all(map(math.isfinite, values)) and _all_finite(scores)):
            raise InputError("eigenvalues and scores must be finite")

    @property
    def grid(self) -> Grid:
        return self.mean.grid

    @property
    def eigenfunctions(self) -> tuple[Curve, ...]:
        """The K eigenfunctions as curves, built on each access."""
        return tuple(Curve(self.grid, row) for row in self.eigenfunction_values)

    @property
    def method(self) -> str:
        return self.config.method

    @property
    def component_variances(self) -> np.ndarray:
        """Per-component score variances (divisor N - 1)."""
        return self.scores.var(axis=0, ddof=1)

    @property
    def n_components(self) -> int:
        return len(self.eigenfunction_values)

    @property
    def n_subjects(self) -> int:
        return int(self.scores.shape[0])

    def fraction_variance_explained(self) -> float:
        """Share of the decomposed spectrum carried by the kept components."""
        kept = float(self.operator_eigenvalues.sum())
        total = kept + float(self._spectrum_remainder)
        return kept / total if total else 1.0


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


def project_scores(sample: FunctionalSample, mean: Curve, phi: np.ndarray) -> np.ndarray:
    """Component scores: quadrature inner products of centered curves with
    each eigenfunction, given as the rows of the K x d array ``phi``.

    Returns an N x K matrix with entry (i, k) equal to
    <X_i - mean, phi_k>, computed ``_PAIR_TILE`` rows at a time, so that
    beyond the result only one block of centered rows is held, never an
    N x d copy.  InputError if ``phi`` is not a rectangular array of finite
    numbers; DimensionError if its rows are not on the sample's grid.
    """
    phi = _float_array(phi)
    if not sample.grid.matches(mean.grid) or phi.ndim != 2 or phi.shape[1] != sample.grid.size:
        raise DimensionError("sample, mean and eigenfunction rows must share the grid")
    if not np.isfinite(phi).all():
        raise InputError("eigenfunction values must be finite")
    x = sample.values
    weighted = (phi * sample.grid.weights).T
    scores = np.empty((len(x), len(phi)))
    for i0 in range(0, len(x), _PAIR_TILE):
        rows = x[i0 : i0 + _PAIR_TILE]
        np.matmul(rows - mean.values, weighted, out=scores[i0 : i0 + len(rows)])
    return scores


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
        Mean, K x d eigenfunction array, operator eigenvalues and score
        matrix, ordered by the decomposed spectrum: the kernel's, or under
        ``eigen_smooth`` the smoothed kernel's, which also sets K and the FVE.
    """
    if sample.n_subjects < 3:
        raise InputError("fit needs at least 3 curves")
    if sample.grid.size < 4:
        raise InputError("fit needs at least 4 grid points")

    if config.presmooth is not None:
        smoothed = smooth_rows(sample.grid, sample.values, config.presmooth)
        sample = FunctionalSample(sample.grid, _readonly(smoothed))

    mean = mean_hat(sample)
    kernel = (kendall_tau_hat if config.method == KFPCA else covariance_hat)(sample)
    if config.eigen_smooth is not None:
        kernel = smooth_kernel(kernel, config.eigen_smooth)

    k = _select_k(kernel.eigenvalues, config.n_components)
    phi = kernel.eigenfunctions(k)
    scores = _readonly(project_scores(sample, mean, phi))
    ev = kernel.eigenvalues
    return FpcaModel(mean, _readonly(phi), ev[:k], scores, config, float(ev[k:].sum()))


def reconstruct(model: FpcaModel, subject: int, n_components: int) -> Curve:
    """Truncated expansion mean + sum_k score_ik phi_k for one subject."""
    _check_index("subject index", subject, model.n_subjects)
    _check_count("reconstruction order", n_components, 0)
    if n_components > model.n_components:
        raise ConfigurationError(
            f"reconstruction order must lie in [0, {model.n_components}]"
        )
    values = model.mean.values.copy()
    for k in range(n_components):
        values += model.scores[subject, k] * model.eigenfunction_values[k]
    return Curve(model.grid, values)


def _config_from_doc(doc: dict, version: str) -> FitConfig:
    """The saved config, each field checked as it was read, not coerced:
    schema 3 saves a smoother as null, "auto" or a number, never a bool.
    Schemas 1 and 2 saved each smoother as a bool flag beside its bandwidth,
    read only if the flag is set, and the degenerate_tol of the kernel,
    which must be the ``DEGENERATE_TOL`` that every fit now uses."""
    if version == SCHEMA_VERSION:
        for name in ("presmooth", "eigen_smooth"):
            if isinstance(doc[name], bool):
                raise ConfigurationError(
                    f"{name} must be null, 'auto' or positive, got {doc[name]!r}"
                )
        return FitConfig(**{f.name: doc[f.name] for f in fields(FitConfig)})
    if doc["degenerate_tol"] != DEGENERATE_TOL:
        tol = doc["degenerate_tol"]
        raise ConfigurationError(f"degenerate_tol must be {DEGENERATE_TOL}, got {tol!r}")
    smoothers = {}
    for name, key in (("presmooth", "presmooth_bandwidth"), ("eigen_smooth", "eigen_bandwidth")):
        if not isinstance(doc[name], bool):
            raise ConfigurationError(f"{name} must be a bool, got {doc[name]!r}")
        smoothers[name] = _check_bandwidth(key, doc[key]) if doc[name] else None
    return FitConfig(doc["method"], doc["n_components"], **smoothers)


def serialize_model(model: FpcaModel) -> dict:
    """JSON-compatible document for a fitted model.

    Floats survive a JSON round trip bit-exactly (shortest-repr encoding
    preserves full double precision).
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "grid": {"points": model.grid.points.tolist()},
        "mean": model.mean.values.tolist(),
        "eigenvalues_operator": model.operator_eigenvalues.tolist(),
        "eigenfunctions": model.eigenfunction_values.tolist(),
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
    if version not in _READABLE_VERSIONS:
        raise ParseError(
            f"unsupported schema_version {version!r}", path="schema_version"
        )

    def array(key):
        return _parse(key, lambda: _frozen_array(doc[key]))

    grid = _parse("grid", lambda: Grid(doc["grid"]["points"]))
    mean = _parse("mean", lambda: Curve(grid, doc["mean"]))
    phi = _parse(
        "eigenfunctions", lambda: _eigenfunction_array(grid, doc["eigenfunctions"])
    )
    eigenvalues = array("eigenvalues_operator")
    scores = array("scores")
    config = _parse("config", lambda: _config_from_doc(doc["config"], version))
    remainder = _parse(
        "spectrum_remainder", lambda: float(doc.get("spectrum_remainder", 0.0))
    )
    return _parse(
        "",
        lambda: FpcaModel(mean, phi, eigenvalues, scores, config, remainder),
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
