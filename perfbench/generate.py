"""Seeded input generator for the benchmark workloads.

`generate(workload, seed, dest)` writes every input one workload needs (the
config, the LICAIN corpus, the observed-estimate feed and the scripted
rounds) and returns a manifest describing them. The same (workload, seed)
gives byte-identical files. The program under test only ever sees these
files; nothing here imports darkspec.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("paths-export", "pool-estimate", "round-ledger")

# Work per run. Throughput depends on these, so the generator keeps them
# fixed across seeds and varies only parameters that leave the work size
# (paths, expected jumps, rounds, files) unchanged.
SIZES = {
    "paths-export": {"reps": 6000, "jumps_per_path": 105.0},
    "pool-estimate": {"reps": 6000, "gap_reps": 3_000_000},
    "round-ledger": {"files": 800, "rounds": 500, "run_files": 40, "feed": 100},
}

# Violation codes a well-formed narrative can produce; one planted defect
# yields exactly one of them.
DEFECTS = (
    "actualization",
    "partial-acyclicity",
    "flow-restriction-1",
    "flow-restriction-2",
    "flow-restriction-5",
)

HORIZON = 100.0

_WORDS = (
    "vehicle device wind plume harbor grid outage cascade failure pathogen release "
    "lab breach containment levee surge tide quake fault rupture fire spread smoke "
    "evacuation corridor supply chain shortage market panic insurer claim reserve "
    "capital model drift sensor alarm operator override protocol audit delay response "
    "relief hospital triage district county river basin rainfall runoff dam spillway"
).split()


def program_seed(workload: str, seed: int) -> int:
    """The darkspec `seed` key, derived from the workload seed."""
    digest = hashlib.sha256(f"darkspec-bench:{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def generate(workload: str, seed: int, dest: Path, sizes: dict | None = None) -> dict:
    """Write the inputs of `workload` for `seed` under `dest`.

    Returns a manifest: the generated files with their sha256, the program
    seed, the per-command parameters the output checks need and, for the
    corpus, each file's expected verdict (`ok` or a violation code).
    `sizes` overrides entries of SIZES (the self-tests use small inputs).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = dict(SIZES[workload], **(sizes or {}))
    rng = random.Random(f"darkspec-bench:{workload}:{seed}")
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "program_seed": program_seed(workload, seed)}
    if workload == "paths-export":
        manifest.update(_paths_export(rng, dest, size, manifest["program_seed"]))
    elif workload == "pool-estimate":
        manifest.update(_pool_estimate(rng, dest, size, manifest["program_seed"]))
    else:
        manifest.update(_round_ledger(rng, dest, size, manifest["program_seed"]))
    manifest["input_sha256"] = {
        str(p.relative_to(dest)): sha256_file(p)
        for p in sorted(dest.rglob("*"))
        if p.is_file()
    }
    return manifest


def _write_config(path: Path, values: list[tuple[str, object]]) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values), encoding="utf-8")


def _split(rng: random.Random, total: float, parts: int, spread: float) -> list[float]:
    """`parts` positive shares of `total`, each within +-spread of equal."""
    base = total / parts
    shifts = [rng.uniform(-spread, spread) * base for _ in range(parts)]
    mean_shift = sum(shifts) / parts
    return [base + s - mean_shift for s in shifts]


def _severity(rng: random.Random, family: str, prefix: str) -> list[tuple[str, object]]:
    if family == "exponential":
        return [(f"{prefix}.severity", family),
                (f"{prefix}.severity_mean", round(rng.uniform(0.5, 5.0), 6))]
    if family == "lognormal":
        # LogNormal accepts only mu > 0 today; a mu <= 0 config exits 2.
        return [(f"{prefix}.severity", family),
                (f"{prefix}.severity_mu", round(rng.uniform(0.1, 1.0), 6)),
                (f"{prefix}.severity_sigma", round(rng.uniform(0.3, 1.0), 6))]
    if family == "pareto":
        # shape <= 4: the fourth moment is infinite, so the variance checks
        # are coin flips; their FAIL rows are counted, not hidden
        return [(f"{prefix}.severity", family),
                (f"{prefix}.severity_scale", round(rng.uniform(0.5, 2.0), 6)),
                (f"{prefix}.severity_shape", round(rng.uniform(2.5, 4.0), 6))]
    raise ValueError(family)


def _component(rng, cid, family, rate, commencement, extra=()):
    prefix = f"component.{cid}"
    return (
        [(f"{prefix}.drift", round(rng.uniform(-1.0, 1.0), 6)),
         (f"{prefix}.diffusion", round(rng.uniform(0.0, 2.0), 6)),
         (f"{prefix}.jump_rate", repr(rate)),
         (f"{prefix}.commencement", commencement)]
        + _severity(rng, family, prefix)
        + list(extra)
    )


def _paths_export(rng, dest, size, pseed):
    families = ["exponential", "lognormal", "pareto"]
    jumps = _split(rng, size["jumps_per_path"], 3, 0.25)
    values = [("seed", pseed), ("reps", size["reps"]), ("horizon", HORIZON)]
    components = {}
    for cid, family, expected in zip(("exp", "logn", "par"), families, jumps):
        commencement = round(rng.uniform(0.0, 20.0), 3)
        rate = expected / (HORIZON - commencement)
        values += _component(rng, cid, family, rate, commencement)
        components[cid] = commencement
    _write_config(dest / "paths.cfg", values)
    return {
        "config": "paths.cfg",
        "reps": size["reps"],
        "horizon": HORIZON,
        # sorted like darkspec.config.parse_components orders them
        "commencements": dict(sorted(components.items())),
    }


def _pool_estimate(rng, dest, size, pseed):
    values = [("seed", pseed), ("reps", size["reps"]), ("horizon", HORIZON),
              ("window", 1.0)]
    light = ["exponential", "lognormal", "pareto", "exponential"]
    components = {}
    # gap-study draws rate * window jumps per replication, so fixed rates keep
    # its work fixed; estimate's per-path cost hardly depends on the jumps
    rates = [0.35] + _split(rng, 0.02, len(light), 0.5)
    specs = [("heavy", "exponential")] + [(f"light{i}", fam) for i, fam in enumerate(light)]
    for (cid, family), rate in zip(specs, rates):
        commencement = round(rng.uniform(0.0, 30.0), 3)
        extra = [(f"component.{cid}.pi", round(rng.uniform(0.2, 0.95), 6))]
        if rng.random() < 0.5 or cid == "heavy":
            extra.append((f"component.{cid}.sigma_eps", round(rng.uniform(0.05, 0.5), 6)))
        values += _component(rng, cid, family, rate, commencement, extra)
        components[cid] = commencement
    _write_config(dest / "pool.cfg", values)
    return {
        "config": "pool.cfg",
        "reps": size["reps"],
        "gap_reps": size["gap_reps"],
        "horizon": HORIZON,
        "commencements": dict(sorted(components.items())),
    }


# ---------------------------------------------------------------------------
# LICAIN corpus


def _text(rng: random.Random, low: int, high: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(low, high)))


def narrative_text(rng: random.Random, risk_id: str, defect: str | None) -> str:
    """One well-formed LICAIN document.

    Stage s has the actualized happening h<s>; the main actor a0 walks the
    chain h1 -> h2 -> ... so it participates at every stage. Side actors
    cover one contiguous block of stages. `defect` plants exactly one
    violation code from DEFECTS; None gives a valid narrative.
    """
    stages = rng.randint(3, 30)
    kinds = ("human", "machine", "nature")
    n_actions = rng.randint(2, 6)
    actions = [(f"act{i}", rng.choice(("human", "machine", "joint", "force-majeure")))
               for i in range(n_actions)]
    side = [(f"a{i}", rng.choice(kinds)) for i in range(1, rng.randint(1, 4) + 1)]
    lines = [f"# expect: {defect or 'ok'}",
             f"NARRATIVE round=1 risk={risk_id}",
             f"ACTOR a0 kind={rng.choice(kinds)}"]
    lines += [f"ACTOR {a} kind={k}" for a, k in side]
    lines += [f"ACTION {a} kind={k}" for a, k in actions]
    if defect == "flow-restriction-5":
        lines.append("ACTOR gap kind=nature")
    extras = []  # non-actualized happenings (id, stage)
    for s in range(1, stages + 1):
        lines.append(f'HAPPENING h{s} stage={s} actualized "{_text(rng, 3, 40)}"')
        for _ in range(rng.randint(0, 3)):
            lines.append(f'CONTEXT h{s} "{_text(rng, 2, 15)}"')
        if s > 1 and rng.random() < 0.3:
            extras.append((f"h{s}x", s))
            lines.append(f'HAPPENING h{s}x stage={s} "{_text(rng, 3, 20)}"')
    if defect == "actualization":
        # a populated stage without an actualized happening
        lines.append(f'HAPPENING h{stages + 1} stage={stages + 1} "{_text(rng, 3, 10)}"')
    if defect == "flow-restriction-2":
        lines.append(f'HAPPENING hw stage=2 "{_text(rng, 3, 10)}"')
    broken = rng.randint(1, stages - 1) if defect == "partial-acyclicity" else None
    for a, _ in side:
        lo = rng.randint(1, stages)
        hi = min(stages, lo + rng.randint(0, 5))
        for s in range(lo, hi + 1):
            lines.append(f"ACTOR-AT {a} h{s}")
    if defect == "flow-restriction-5":
        lines += ["ACTOR-AT gap h1", "ACTOR-AT gap h3"]
    for s in range(1, stages):
        if s != broken:
            lines.append(f"EDGE h{s} -> h{s + 1} actor=a0 action={rng.choice(actions)[0]}")
    for hid, s in extras:
        lines.append(f"EDGE h{s - 1} -> {hid} actor=a0 action={rng.choice(actions)[0]}")
    if defect == "flow-restriction-1":
        lines.append(f"EDGE h2 -> h2 actor=a0 action={actions[0][0]}")
    if defect == "flow-restriction-2":
        lines.append(f"EDGE h2 -> hw actor=a0 action={actions[0][0]}")
    if rng.random() < 0.5:
        pivot = rng.randint(1, stages)
        lines.append(f"PIVOT h{pivot} enables={actions[0][0]} defeat={actions[1][0]}")
    return "\n".join(lines) + "\n"


def _round_ledger(rng, dest, size, pseed):
    corpus = dest / "corpus"
    corpus.mkdir(exist_ok=True)
    labels = {}
    for i in range(size["files"]):
        # the first run_files narratives are valid: run-process cycles them
        defect = None
        if i >= size["run_files"] and rng.random() < 0.15:
            defect = rng.choice(DEFECTS)
        name = f"corpus/n{i:05d}.licain"
        (dest / name).write_text(
            narrative_text(rng, f"risk{i:05d}", defect), encoding="utf-8"
        )
        labels[name] = defect or "ok"

    feed = ["component_id,source,round,lambda_hat,xi_hat,severity_var,window,n_events"]
    for i in range(size["feed"]):
        if rng.random() < 0.8:
            n = rng.randint(0, 60)
            window = round(rng.uniform(1.0, 100.0), 4)
            xi = "" if n == 0 else repr(rng.uniform(0.5, 30.0))
            var = 0.0 if n == 0 else rng.uniform(0.0, 50.0)
            feed.append(f"obs{i:03d},observed,,{n / window!r},{xi},{var!r},{window!r},{n}")
        else:
            feed.append(
                f"obs{i:03d},underwriting,{rng.randint(1, 5)},{rng.uniform(0.0, 0.5)!r},"
                f"{rng.uniform(0.5, 30.0)!r},{rng.uniform(0.0, 20.0)!r},1.0,0"
            )
    (dest / "observed.csv").write_text("\n".join(feed) + "\n", encoding="utf-8")

    c_write = round(rng.uniform(0.5, 2.0), 4)
    c_spec = round(rng.uniform(0.5, 3.0), 4)
    values = [
        ("seed", pseed),
        ("cost.c_write", c_write),
        ("cost.c_spec", c_spec),
        ("cost.c_obs", round(rng.uniform(0.0, 1.0), 4)),
        ("quality.sigma2_max", 5.0),
        ("quality.sigma2_min", 1.0),
        ("quality.eta", round(rng.uniform(0.05, 0.3), 4)),
        ("weights.D1", 1.0),
        ("weights.D2", round(rng.uniform(0.5, 2.0), 4)),
        ("weights.psi_shape", rng.choice(("quadratic", "absolute"))),
        ("weights.phi", 1.0),
        ("redline.nu_star", round(rng.uniform(50.0, 400.0), 3)),
        ("observed_csv", "observed.csv"),
        ("stopping.rho", 1.0),
        ("stopping.R_max", rng.randint(20, 30)),
        ("stopping.delta_initial", round(rng.uniform(5.0, 20.0), 4)),
        ("stopping.delta_decay", round(rng.uniform(0.7, 0.95), 4)),
    ]
    mitigation = option = 0.0
    for n in range(1, size["rounds"] + 1):
        mitigation += rng.uniform(0.0, 0.5)
        option += rng.uniform(0.0, 0.3)
        values += [
            (f"round.{n}.lambda_hat", repr(rng.uniform(0.001, 0.5))),
            (f"round.{n}.xi_hat", repr(rng.uniform(1.0, 50.0))),
            (f"round.{n}.severity_var", repr(rng.uniform(0.0, 100.0))),
            (f"round.{n}.window", 1.0),
            (f"round.{n}.mitigation", repr(mitigation)),
            (f"round.{n}.option", repr(option)),
            (f"round.{n}.sponsored", rng.choice(("true", "false"))),
        ]
    _write_config(dest / "ledger.cfg", values)
    run_files = [f"corpus/n{i:05d}.licain" for i in range(size["run_files"])]
    (dest / "labels.json").write_text(json.dumps(labels, indent=0, sort_keys=True) + "\n")
    return {
        "config": "ledger.cfg",
        "corpus": sorted(labels),
        "labels": labels,
        "run_files": run_files,
        "rounds": size["rounds"],
    }
