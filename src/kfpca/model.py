"""End-to-end fit pipeline and model persistence.

A fit runs each stage once, on arrays: optional pre-smoothing (a GCV
bandwidth per curve), mean estimation, a kernel estimate (pairwise sign-based
or sample covariance) with its one weighted eigensolve, the cut at K
components, optional smoothing of the K kept eigenfunctions, score
projection, and per-component score variances.
The fitted object serializes to a single JSON document.
"""

import json
import os
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .core import Curve, FunctionalSample, Grid, _frozen_array, smooth_rows
from .eigen import EigenSystem, eigen_decompose, project_scores
from .errors import ConfigurationError, InputError, ParseError
from .estimators import covariance_hat, kendall_tau_hat, mean_hat

KFPCA = "kfpca"
COV = "cov"
METHODS = (KFPCA, COV)

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class FitConfig:
    """Options controlling a fit.

    ``n_components`` is either an integer count or a float in (0, 1) read
    as a fraction-of-variance-explained threshold on the decomposed
    spectrum.  ``seed`` is carried along for downstream resampling only;
    the fit itself is deterministic.
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
        if isinstance(n, bool) or not (
            (isinstance(n, int) and n >= 1)
            or (isinstance(n, float) and 0.0 < n < 1.0)
        ):
            raise ConfigurationError(
                "n_components must be a count >= 1 or a threshold in (0, 1)"
            )
        if self.degenerate_tol < 0:
            raise ConfigurationError("degenerate_tol must be non-negative")


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
        object.__setattr__(
            self, "operator_eigenvalues", _frozen_array(self.operator_eigenvalues)
        )
        object.__setattr__(
            self, "component_variances", _frozen_array(self.component_variances)
        )
        object.__setattr__(self, "scores", _frozen_array(self.scores))
        object.__setattr__(self, "eigenfunctions", tuple(self.eigenfunctions))

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
    system = eigen_decompose(
        kernel, k, smooth=config.eigen_smooth, bandwidth=config.eigen_bandwidth
    )
    scores = project_scores(sample, mean, system, k)
    return FpcaModel(
        grid=sample.grid,
        mean=mean,
        eigenfunctions=system.eigenfunctions,
        operator_eigenvalues=system.operator_eigenvalues,
        component_variances=scores.var(axis=0, ddof=1),
        scores=scores,
        method=config.method,
        config=config,
        _spectrum_remainder=float(kernel.eigenvalues[k:].sum()),
    )


def reconstruct(model: FpcaModel, subject: int, n_components: int) -> Curve:
    """Truncated expansion mean + sum_k score_ik phi_k for one subject."""
    if not 0 <= subject < model.n_subjects:
        raise InputError(
            f"subject index {subject} out of range [0, {model.n_subjects})"
        )
    if not 0 <= n_components <= model.n_components:
        raise ConfigurationError(
            f"reconstruction order must lie in [0, {model.n_components}]"
        )
    values = model.mean.values.copy()
    for k in range(n_components):
        values += model.scores[subject, k] * model.eigenfunctions[k].values
    return Curve(model.grid, values)


def _config_to_doc(config: FitConfig) -> dict:
    return asdict(config)


def _config_from_doc(doc: dict) -> FitConfig:
    try:
        n = doc["n_components"]
        if isinstance(n, float) and n >= 1.0:
            n = int(n)
        return FitConfig(
            method=doc["method"],
            n_components=n,
            presmooth=bool(doc["presmooth"]),
            presmooth_bandwidth=doc["presmooth_bandwidth"],
            eigen_smooth=bool(doc["eigen_smooth"]),
            eigen_bandwidth=doc["eigen_bandwidth"],
            degenerate_tol=float(doc["degenerate_tol"]),
            seed=int(doc["seed"]),
        )
    except KeyError as exc:
        raise ParseError(f"config is missing field {exc.args[0]!r}", path=f"config.{exc.args[0]}")
    except (TypeError, ValueError, ConfigurationError) as exc:
        raise ParseError(f"malformed config: {exc}", path="config")


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
        "config": _config_to_doc(model.config),
    }


_REQUIRED_FIELDS = (
    "schema_version",
    "method",
    "grid",
    "mean",
    "eigenvalues_operator",
    "component_variances",
    "eigenfunctions",
    "scores",
    "config",
)


def deserialize_model(doc: dict) -> FpcaModel:
    """Rebuild a model from its document, validating shape consistency.

    Raises
    ------
    ParseError
        Missing or malformed fields; ``path`` names the offending field.
    """
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object", path="")
    for name in _REQUIRED_FIELDS:
        if name not in doc:
            raise ParseError(f"missing field {name!r}", path=name)
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema_version {doc['schema_version']!r}",
            path="schema_version",
        )
    if not isinstance(doc["grid"], dict):
        raise ParseError("field 'grid' must be a JSON object", path="grid")
    if "points" not in doc["grid"]:
        raise ParseError("missing field 'grid.points'", path="grid.points")

    def _vector(name, raw):
        try:
            arr = np.asarray(raw, dtype=float)
        except (TypeError, ValueError):
            raise ParseError(f"field {name!r} is not numeric", path=name)
        if arr.ndim != 1:
            raise ParseError(f"field {name!r} must be a flat array", path=name)
        return arr

    points = _vector("grid.points", doc["grid"]["points"])
    try:
        grid = Grid.from_points(points)
    except ConfigurationError as exc:
        raise ParseError(f"bad grid: {exc}", path="grid.points")
    d = grid.size

    mean = _vector("mean", doc["mean"])
    if mean.size != d:
        raise ParseError(
            f"mean length {mean.size} does not match grid length {d}", path="mean"
        )
    eigenvalues = _vector("eigenvalues_operator", doc["eigenvalues_operator"])
    variances = _vector("component_variances", doc["component_variances"])

    if not isinstance(doc["eigenfunctions"], list):
        raise ParseError("field 'eigenfunctions' must be a list", path="eigenfunctions")
    funcs = []
    for k, raw in enumerate(doc["eigenfunctions"]):
        vec = _vector(f"eigenfunctions[{k}]", raw)
        if vec.size != d:
            raise ParseError(
                f"eigenfunction {k} length {vec.size} does not match grid length {d}",
                path=f"eigenfunctions[{k}]",
            )
        funcs.append(Curve(grid, vec))
    if len(funcs) != eigenvalues.size or len(funcs) != variances.size:
        raise ParseError(
            "eigenfunctions, eigenvalues_operator, and component_variances disagree in length",
            path="eigenfunctions",
        )

    try:
        scores = np.asarray(doc["scores"], dtype=float)
    except (TypeError, ValueError):
        raise ParseError("field 'scores' is not numeric", path="scores")
    if scores.ndim != 2 or scores.shape[1] != len(funcs):
        raise ParseError(
            "scores must be an N x K matrix matching the eigenfunction count",
            path="scores",
        )

    try:
        remainder = float(doc.get("spectrum_remainder", 0.0))
    except (TypeError, ValueError):
        raise ParseError("field 'spectrum_remainder' is not numeric", path="spectrum_remainder")
    return FpcaModel(
        grid=grid,
        mean=Curve(grid, mean),
        eigenfunctions=tuple(funcs),
        operator_eigenvalues=eigenvalues,
        component_variances=variances,
        scores=scores,
        method=doc["method"],
        config=_config_from_doc(doc["config"]),
        _spectrum_remainder=remainder,
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

    def write(fh):
        json.dump(serialize_model(model), fh)
        fh.write("\n")

    atomic_write(path, write)


def load_model(path) -> FpcaModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}", path="")
    return deserialize_model(doc)
