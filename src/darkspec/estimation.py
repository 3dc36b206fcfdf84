"""The observed-history estimator and the process-knowable risk estimate (PKRE).

Observed-history estimates come straight from event counts and jump sizes;
underwritten estimates arrive from a speculation round. Either way the
expected jump loss per unit time is rate times mean severity, and the PKRE
is the additive total over observed plus imagined components. Risks still in
the SDS set have no estimates and contribute nothing.

Everything here is a pure function over immutable inputs and safe to
evaluate in parallel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Sequence

from .errors import DomainError, ParameterError
from .process import csv_line


class EstimateSource(Enum):
    OBSERVED_HISTORY = "observed"
    UNDERWRITING = "underwriting"


@dataclass(frozen=True)
class RiskEstimate:
    """(rate, mean severity) for one component, with sampling provenance.

    ``xi_hat`` is None exactly when an observed window contained no events;
    the component then contributes zero to any loss total. ``total_loss``
    is the raw sum of observed jump sizes and is what makes the Wald
    identity (loss rate == total / window) exact for observed histories.
    """

    component_id: str
    lambda_hat: float
    xi_hat: float | None
    severity_variance: float
    window: float
    n_events: int
    source: EstimateSource
    round: int | None = None
    total_loss: float | None = None

    def __post_init__(self):
        if not 0.0 < self.window < math.inf:
            raise DomainError(f"window must be finite and > 0, got {self.window}")
        if not 0.0 <= self.lambda_hat < math.inf:
            raise ParameterError(f"lambda_hat must be finite and >= 0, got {self.lambda_hat}")
        if not 0.0 <= self.severity_variance < math.inf:
            raise ParameterError(
                f"severity_variance must be finite and >= 0, got {self.severity_variance}"
            )
        if self.n_events < 0:
            raise ParameterError(f"n_events must be >= 0, got {self.n_events}")
        if self.xi_hat is not None and not 0.0 <= self.xi_hat < math.inf:
            raise ParameterError(f"xi_hat must be finite and >= 0, got {self.xi_hat}")
        if self.source is EstimateSource.OBSERVED_HISTORY:
            if self.lambda_hat != self.n_events / self.window:
                raise ParameterError(
                    "observed-history estimates must satisfy lambda_hat == "
                    f"n_events / window; got {self.lambda_hat} != "
                    f"{self.n_events / self.window}"
                )
            if self.n_events == 0 and self.xi_hat is not None:
                raise ParameterError("xi_hat is undefined for a zero-event window")
            if self.n_events > 0 and self.xi_hat is None:
                raise ParameterError("xi_hat is required once events were observed")
        else:
            if self.xi_hat is None:
                raise ParameterError("underwriting must supply xi_hat")
            if self.round is None:
                raise ParameterError("underwriting estimates carry a round index")


def estimate_from_observation(
    component_id: str, jump_sizes: Sequence[float], window: float
) -> RiskEstimate:
    """Build an observed-history estimate from one window of jump data."""
    import numpy as np
    if window <= 0.0:
        raise DomainError(f"window must be > 0, got {window}")
    sizes = np.asarray(jump_sizes, dtype=float)
    n = len(sizes)
    if n == 0:
        return RiskEstimate(
            component_id=component_id,
            lambda_hat=0.0,
            xi_hat=None,
            severity_variance=0.0,
            window=window,
            n_events=0,
            source=EstimateSource.OBSERVED_HISTORY,
            total_loss=0.0,
        )
    total = float(np.sum(sizes))
    sample_var = float(np.var(sizes, ddof=1)) if n > 1 else 0.0
    return RiskEstimate(
        component_id=component_id,
        lambda_hat=n / window,
        xi_hat=total / n,
        severity_variance=sample_var,
        window=window,
        n_events=n,
        source=EstimateSource.OBSERVED_HISTORY,
        total_loss=total,
    )


def expected_jump_loss(estimate: RiskEstimate) -> float:
    """Expected loss per unit time: rate times mean severity.

    For observed histories this equals total_loss / window exactly, not just
    up to rounding, which is the identity the whole estimate rests on.
    """
    if estimate.total_loss is not None:
        return estimate.total_loss / estimate.window
    if estimate.xi_hat is None:
        return 0.0
    return estimate.lambda_hat * estimate.xi_hat


def jump_loss_variance(
    lambda_hat: float,
    xi_hat: float,
    severity_variance: float,
    window: float,
    *,
    form: str = "mgf",
) -> float:
    """Sampling variance of the per-unit-time loss estimate.

    The default ``mgf`` form is rate * (mean^2 + variance) / window, the
    compound-process second moment. ``form="literal"`` switches to
    rate * (mean + variance) / window, an alternative first-power form kept
    selectable for comparison; the two are deliberately not reconciled.
    """
    if window <= 0.0:
        raise DomainError(f"window must be > 0, got {window}")
    if form == "mgf":
        return lambda_hat * (xi_hat * xi_hat + severity_variance) / window
    if form == "literal":
        return (lambda_hat * xi_hat + lambda_hat * severity_variance) / window
    raise DomainError(f"unknown variance form {form!r}; expected 'mgf' or 'literal'")


def estimate_loss_variance(estimate: RiskEstimate, *, form: str = "mgf") -> float:
    """Loss variance of one estimate; zero-event windows contribute zero."""
    if estimate.xi_hat is None:
        return 0.0
    return jump_loss_variance(
        estimate.lambda_hat,
        estimate.xi_hat,
        estimate.severity_variance,
        estimate.window,
        form=form,
    )


@dataclass(frozen=True)
class PKREResult:
    """Additive loss totals over the observed and imagined estimate sets."""

    observed: float
    imagined: float
    total: float
    variance: float


def _check_unique(estimates: Sequence[RiskEstimate], label: str) -> None:
    seen = set()
    for est in estimates:
        if est.component_id in seen:
            raise DomainError(f"duplicate component id {est.component_id!r} in {label} set")
        seen.add(est.component_id)


_UNIT = 2**1074  # every finite double is a whole number of 2**-1074


def _units(estimates: Iterable[RiskEstimate]) -> tuple[int, int]:
    """The loss and the variance terms of ``estimates``, each summed exactly
    as an int in units of 2**-1074; a term that is not finite raises
    DomainError naming its component."""
    sums = [0, 0]
    for estimate in estimates:
        terms = expected_jump_loss(estimate), estimate_loss_variance(estimate)
        for i, term in enumerate(terms):
            if not math.isfinite(term):
                name = ("expected loss", "loss variance")[i]
                raise DomainError(f"the {name} of {estimate.component_id!r} is {term}")
            n, d = term.as_integer_ratio()  # d = 2**k with k <= 1074
            sums[i] += n << (1075 - d.bit_length())
    return sums[0], sums[1]


def _pkre(observed: tuple[int, int], imagined: tuple[int, int]) -> PKREResult:
    """The PKRE of the observed and the imagined unit sums. Int true division
    rounds correctly, so each value has the bits math.fsum gives over the
    terms; a value past the float range raises DomainError."""
    (observed_loss, observed_var), (imagined_loss, imagined_var) = observed, imagined
    try:
        return PKREResult(
            observed=observed_loss / _UNIT,
            imagined=imagined_loss / _UNIT,
            total=(observed_loss + imagined_loss) / _UNIT,
            variance=(observed_var + imagined_var) / _UNIT,
        )
    except OverflowError:
        raise DomainError("the PKRE passes the largest float") from None


def compute_pkre(
    observed: Sequence[RiskEstimate],
    imagined: Sequence[RiskEstimate],
) -> PKREResult:
    """Total expected jump loss and its variance over both estimate sets, each
    an exact sum, correctly rounded whatever the grouping."""
    _check_unique(observed, "observed")
    _check_unique(imagined, "imagined")
    return _pkre(_units(observed), _units(imagined))


_ESTIMATE_CSV_HEADER = [
    "component_id", "source", "round", "lambda_hat", "xi_hat",
    "severity_var", "window", "n_events",
]


def write_estimates_csv(estimates: Iterable[RiskEstimate], out: IO[str]) -> None:
    out.write(csv_line(_ESTIMATE_CSV_HEADER))
    for est in estimates:
        out.write(csv_line([
            est.component_id,
            est.source.value,
            "" if est.round is None else est.round,
            repr(est.lambda_hat),
            "" if est.xi_hat is None else repr(est.xi_hat),
            repr(est.severity_variance),
            repr(est.window),
            est.n_events,
        ]))


def _cell(row: dict, column: str, parse):
    text = row[column] or ""
    try:
        value = parse(text)
    except ValueError:
        raise DomainError(f"column {column!r}: cannot parse {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"column {column!r} must be finite, got {text!r}")
    return value


def read_estimates_csv(source: IO[str]) -> list[RiskEstimate]:
    """Parse what :func:`write_estimates_csv` writes; a missing column, a bad
    cell, an inconsistent estimate or a repeated component id raises
    DomainError naming its line."""
    reader = csv.DictReader(source)
    missing = [c for c in _ESTIMATE_CSV_HEADER if c not in (reader.fieldnames or ())]
    if missing:
        raise DomainError(f"line 1: missing column(s) {', '.join(missing)}")
    estimates = {}
    for row in reader:
        try:
            estimate = RiskEstimate(
                component_id=row["component_id"],
                lambda_hat=_cell(row, "lambda_hat", float),
                xi_hat=_cell(row, "xi_hat", float) if row["xi_hat"] else None,
                severity_variance=_cell(row, "severity_var", float),
                window=_cell(row, "window", float),
                n_events=_cell(row, "n_events", int),
                source=_cell(row, "source", EstimateSource),
                round=_cell(row, "round", int) if row["round"] else None,
                total_loss=None,
            )
        except ValueError as exc:
            raise DomainError(f"line {reader.line_num}: {exc}") from exc
        if estimate.component_id in estimates:
            raise DomainError(
                f"line {reader.line_num}: duplicate component id {estimate.component_id!r}"
            )
        estimates[estimate.component_id] = estimate
    return list(estimates.values())
