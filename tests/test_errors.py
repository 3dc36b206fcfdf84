"""The one range check, and every field and argument it guards."""

import io
import math
import re
from pathlib import Path

import pytest

from darkspec import (
    ConfigError,
    CostModel,
    Degenerate,
    DomainError,
    EstimateSource,
    Exponential,
    Happening,
    ImprovingDetection,
    LevyComponent,
    LogNormal,
    LossWeights,
    Mixture,
    NarrativeQuality,
    ParameterError,
    Pareto,
    RedLineConfig,
    RiskEstimate,
    RoundDeltas,
    community_precision_condition,
    continuation,
    delta_benefit,
    derive_seed,
    estimate_from_observation,
    hyperanxiety_avoidance,
    jump_loss_variance,
    optimal_stopping_brute,
    simulate_block,
)
from darkspec.config import (
    ComponentSpec,
    ExperimentConfig,
    _as_float,
    _underwriting,
    detection_profile,
    parse_components,
)
from darkspec.errors import require
from darkspec.estimation import read_estimates_csv
from darkspec.oracles import bias_thinning_mc, variance_gap_mc
from darkspec.process import block_seeds


@pytest.mark.parametrize("value, interval, inside", [
    (0.0, "[0, 1]", True),
    (1, "[0, 1]", True),
    (0.0, "(0, 1]", False),
    (1.0, "[0, 1)", False),
    (5e-324, "(0, 1)", True),
    (-1e308, "(-inf, inf)", True),
    (math.nan, "(-inf, inf)", False),
    (math.inf, "[0, inf)", False),
    (-math.inf, "(-inf, 0]", False),
], ids=["closed-low", "closed-high-int", "open-low", "open-high", "least-positive",
        "finite-default", "nan-default", "inf", "-inf"])
def test_require_checks_each_end(value, interval, inside):
    if inside:
        assert require("x", value, interval) is value
    else:
        with pytest.raises(ParameterError) as refused:
            require("x", value, interval)
        assert str(refused.value) == f"x must lie in {interval}, got {value!r}"


def test_require_raises_the_error_it_is_given():
    with pytest.raises(ConfigError, match=r"^key 'k' must lie in \[0, inf\), got -1$"):
        require("key 'k'", -1, "[0, inf)", ConfigError)


PROFILE = ImprovingDetection(pi_1=0.2, pi_max=0.8, psi=1.0)
COMPONENT = LevyComponent("k", 0.0, 0.0, 1.0, Degenerate(1.0))
CSV_HEADER = "component_id,source,round,lambda_hat,xi_hat,severity_var,window,n_events\n"
ONE_COMPONENT = {"component.a.jump_rate": "1.0", "component.a.severity": "degenerate",
                 "component.a.severity_value": "1.0"}
ROUND = {"round.1.lambda_hat": "1.0", "round.1.xi_hat": "1.0"}


def estimate(**fields):
    return RiskEstimate(**{"component_id": "k", "lambda_hat": 1.0, "xi_hat": 2.0,
                           "severity_variance": 0.5, "window": 1.0, "n_events": 0,
                           "source": EstimateSource.UNDERWRITING, "round": 1, **fields})


def experiment(**fields):
    return ExperimentConfig(**{"kind": "simulate", "seed": 0, "reps": 1, "out": Path("."),
                               "tolerance": 0.05, "long_format": False, **fields})


def underwriting(field, value):
    return _underwriting({**ROUND, f"round.1.{field}": repr(value)}, "round.1")


# (site, call with the value in the guarded place, name, interval, error, integer)
SITES = [
    ("Exponential.rate", lambda v: Exponential(v), "rate", "(0, inf)", ParameterError, False),
    ("Exponential.from_mean", Exponential.from_mean, "mean", "(0, inf)", ParameterError,
     False),
    ("LogNormal.mu", lambda v: LogNormal(v, 1.0), "mu", "(-inf, inf)", ParameterError, False),
    ("LogNormal.sigma", lambda v: LogNormal(0.0, v), "sigma", "(0, inf)", ParameterError,
     False),
    ("Pareto.scale", lambda v: Pareto(v, 3.0), "scale", "(0, inf)", ParameterError, False),
    ("Pareto.shape", lambda v: Pareto(1.0, v), "shape", "(1, inf)", ParameterError, False),
    ("Degenerate.value", Degenerate, "value", "(0, inf)", ParameterError, False),
    ("Mixture.weights", lambda v: Mixture((Degenerate(1.0), Degenerate(2.0)), (1.0, v)),
     "mixture weights", "[0, inf)", ParameterError, False),
    ("ImprovingDetection.psi", lambda v: ImprovingDetection(0.2, 0.8, v), "psi", "(0, inf)",
     ParameterError, False),
    ("ImprovingDetection.detection", PROFILE.detection, "round", "[1, inf)", DomainError,
     True),
    ("delta_benefit", lambda v: delta_benefit(1, PROFILE, 1.0, 1.0, v), "expected_duration",
     "(0, inf)", DomainError, False),
    ("CostModel.c_write", lambda v: CostModel.constant(v, 1.0), "c_write", "(0, inf)",
     ParameterError, False),
    ("CostModel.c_spec", lambda v: CostModel.constant(1.0, v), "c_spec", "(0, inf)",
     ParameterError, False),
    ("CostModel.c_obs", lambda v: CostModel.constant(1.0, 1.0, v), "c_obs", "[0, inf)",
     ParameterError, False),
    ("CostModel.speculation_cost", CostModel.variable_cost(1.0).speculation_cost,
     "happening count", "[1, inf)", DomainError, True),
    ("LossWeights.d1", lambda v: LossWeights(d1=v), "d1", "(0, inf)", ParameterError, False),
    ("LossWeights.d2", lambda v: LossWeights(d2=v), "d2", "(0, inf)", ParameterError, False),
    ("NarrativeQuality.eta", lambda v: NarrativeQuality(5.0, 1.0, v), "eta", "(0, inf)",
     ParameterError, False),
    ("NarrativeQuality.noise_variance", NarrativeQuality(5.0, 1.0, 0.2).noise_variance,
     "happening count", "[1, inf)", DomainError, True),
    ("RedLineConfig.nu_star", RedLineConfig, "nu_star", "(0, inf)", ParameterError, False),
    ("continuation", lambda v: continuation(CostModel.constant(1.0, 1.0), 1, v,
                                            RoundDeltas(0.0, 0.0, 0.0)),
     "round index", "[1, inf)", DomainError, True),
    ("hyperanxiety_avoidance",
     lambda v: hyperanxiety_avoidance(0.5, 1.0, 1.0, 0.0, RedLineConfig(1.0), v),
     "round index", "[1, inf)", DomainError, True),
    ("community_precision_condition", lambda v: community_precision_condition(1.0, 1.0, v),
     "round index", "[1, inf)", DomainError, True),
    ("optimal_stopping_brute.rho", lambda v: optimal_stopping_brute([1.0], v),
     "discount rho", "(0, 1]", DomainError, False),
    ("optimal_stopping_brute.utilities", lambda v: optimal_stopping_brute([1.0, v], 1.0),
     "utilities", "(-inf, inf)", DomainError, False),
    ("RiskEstimate.window", lambda v: estimate(window=v), "window", "(0, inf)", DomainError,
     False),
    ("RiskEstimate.lambda_hat", lambda v: estimate(lambda_hat=v), "lambda_hat", "[0, inf)",
     ParameterError, False),
    ("RiskEstimate.xi_hat", lambda v: estimate(xi_hat=v), "xi_hat", "[0, inf)",
     ParameterError, False),
    ("RiskEstimate.severity_variance", lambda v: estimate(severity_variance=v),
     "severity_variance", "[0, inf)", ParameterError, False),
    ("RiskEstimate.n_events", lambda v: estimate(n_events=v), "n_events", "[0, inf)",
     ParameterError, True),
    ("estimate_from_observation", lambda v: estimate_from_observation("k", [1.0], v),
     "window", "(0, inf)", DomainError, False),
    ("jump_loss_variance", lambda v: jump_loss_variance(1.0, 1.0, 0.0, v), "window",
     "(0, inf)", DomainError, False),
    ("read_estimates_csv", lambda v: read_estimates_csv(
        io.StringIO(CSV_HEADER + f"k,underwriting,1,{v!r},2.0,0.0,1.0,0\n")),
     "column 'lambda_hat'", "(-inf, inf)", DomainError, False),
    ("LevyComponent.diffusion", lambda v: LevyComponent("k", 0.0, v, 1.0, Degenerate(1.0)),
     "diffusion", "[0, inf)", ParameterError, False),
    ("LevyComponent.jump_rate", lambda v: LevyComponent("k", 0.0, 0.0, v, Degenerate(1.0)),
     "jump_rate", "[0, inf)", ParameterError, False),
    ("LevyComponent.commencement",
     lambda v: LevyComponent("k", 0.0, 0.0, 1.0, Degenerate(1.0), commencement=v),
     "commencement", "[0, inf)", ParameterError, False),
    ("derive_seed.root_seed", lambda v: derive_seed(v, "k", 0), "root_seed", "[0, inf)",
     DomainError, True),
    ("derive_seed.block_index", lambda v: derive_seed(0, "k", v), "block_index", "[0, inf)",
     DomainError, True),
    ("simulate_block", lambda v: simulate_block(COMPONENT, 1.0, 0, v), "n", "[0, inf)",
     DomainError, True),
    ("block_seeds", lambda v: block_seeds("k", 0, v), "n_paths", "[0, inf)", DomainError,
     True),
    ("bias_thinning_mc.pi", lambda v: bias_thinning_mc([1.0], [v], 10, 0), "every pi",
     "[0, 1]", DomainError, False),
    ("variance_gap_mc.window",
     lambda v: variance_gap_mc([1.0], [Degenerate(1.0)], [1.0], v, 2, 0),
     "window", "(0, inf)", DomainError, False),
    ("variance_gap_mc.pi", lambda v: variance_gap_mc([1.0], [Degenerate(1.0)], [v], 1.0, 2, 0),
     "every pi", "[0, 1]", DomainError, False),
    ("variance_gap_mc.sigma_eps",
     lambda v: variance_gap_mc([1.0], [Degenerate(1.0)], [1.0], 1.0, 2, 0, sigma_eps=[v]),
     "every sigma_eps", "[0, inf)", DomainError, False),
    ("Happening.stage", lambda v: Happening("h", v, "d"), "stage", "[1, inf)", ParameterError,
     True),
    ("_as_float", lambda v: _as_float({"k": repr(v)}, "k"), "key 'k'", "(-inf, inf)",
     ConfigError, False),
    ("parse_components.sigma_eps",
     lambda v: parse_components({**ONE_COMPONENT, "component.a.sigma_eps": repr(v)}),
     "key 'component.a.sigma_eps'", "[0, inf)", ConfigError, False),
    ("detection_profile", lambda v: detection_profile([ComponentSpec(COMPONENT, pi=v)]),
     "key 'component.k.pi'", "[0, 1]", ConfigError, False),
    *((f"_underwriting.{field}", lambda v, field=field: underwriting(field, v),
       f"key 'round.1.{field}'", interval, ConfigError, False)
      for field, interval in [("lambda_hat", "[0, inf)"), ("xi_hat", "[0, inf)"),
                              ("severity_var", "[0, inf)"), ("window", "(0, inf)")]),
    ("ExperimentConfig.reps", lambda v: experiment(reps=v), "reps", "[1, inf)", ConfigError,
     True),
    ("ExperimentConfig.seed", lambda v: experiment(seed=v), "seed", "[0, inf)", ConfigError,
     True),
    ("ExperimentConfig.tolerance", lambda v: experiment(tolerance=v), "tolerance", "(0, 1]",
     ConfigError, False),
]

# nan, inf and -inf reach these sites only through another check: a config
# value's through _as_float, and the rest through the non-finite tests of
# LevyComponent, LossWeights, NarrativeQuality and RiskEstimate, which
# also cover drift, phi, sigma2_max and sigma2_min
FINITE_ONLY = {
    "LevyComponent.diffusion", "LevyComponent.jump_rate", "LevyComponent.commencement",
    "LossWeights.d1", "LossWeights.d2", "NarrativeQuality.eta", "RiskEstimate.window",
    "RiskEstimate.lambda_hat", "RiskEstimate.xi_hat", "RiskEstimate.severity_variance",
    "parse_components.sigma_eps", "_underwriting.lambda_hat", "_underwriting.xi_hat",
    "_underwriting.severity_var", "_underwriting.window",
}


def outside(interval, integer):
    """nan, inf, -inf and the first value past each finite end of ``interval``."""
    low, high = map(float, interval[1:-1].split(","))
    past = {}
    for end, closed, direction in ((low, interval[0] == "[", -1), (high, interval[-1] == "]", 1)):
        if math.isfinite(end):
            if not closed:
                past[f"{end:g}"] = end
            elif integer:
                past[f"{int(end) + direction}"] = int(end) + direction
            else:
                side = "below" if direction < 0 else "above"
                past[f"{side}-{end:g}"] = math.nextafter(end, direction * math.inf)
    return {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, **past}


@pytest.mark.parametrize("call, name, interval, error, value", [
    pytest.param(call, name, interval, error, value, id=f"{site}-{label}")
    for site, call, name, interval, error, integer in SITES
    for label, value in outside(interval, integer).items()
    if math.isfinite(value) or site not in FINITE_ONLY
])
def test_every_guarded_number_is_refused_outside_its_range(call, name, interval, error,
                                                           value):
    with pytest.raises(error, match=re.escape(f"{name} must lie in {interval}")):
        call(value)
