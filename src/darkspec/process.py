"""Spectrally negative Levy loss components and their simulation.

A component's loss path is drift plus Brownian noise minus a compound Poisson
sum of nonnegative jump magnitudes. Only the terminal Brownian value is ever
simulated: no estimator in this package looks inside the window.

Simulation is pure in (component, horizon, seed), so paths can be generated
in any order or in parallel. :func:`simulate_block` draws a block of paths
from one generator, :func:`sample_path` is its one-path case, and
:func:`block_seeds` lays out the one stream of n paths under a root seed:
each block's ``(seed, n)``, its seed from :func:`derive_seed` so that blocks
are order-independent. :func:`sample_blocks` draws that stream in order; the
``simulate`` command submits its blocks to a pool of W forked worker
processes, at most 2W past the last block written, while the parent writes
the blocks in stream order and copies their terminal values into one array,
so the bytes do not depend on W or on which worker draws which block, and
each worker holds one block.
A block holds its paths in flat arrays; :meth:`PathBlock.paths` views them
as one :class:`PathSample` per path. :func:`write_paths_csv` writes paths as
CSV rows; called once per block with the running path index as ``start``, it
gives the bytes of one call over every path, so a block can be written as soon
as it is drawn and then dropped. :func:`theoretical_moments` gives the
closed-form ``(mean, variance)`` a terminal value is checked against.

Numpy is imported inside the functions that use it, never at module level,
here as in every darkspec module, so commands that draw nothing start without it.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import DomainError, ParameterError, require
from .severity import Mixture, SeverityDistribution

if TYPE_CHECKING:
    import numpy as np


class RiskCategory(Enum):
    OBSERVED = "observed"
    IMAGINED = "imagined"
    SDS = "sds"


# reclassification may only move forward: sds -> imagined -> observed
_CATEGORY_ORDER = {RiskCategory.SDS: 0, RiskCategory.IMAGINED: 1, RiskCategory.OBSERVED: 2}


@dataclass(frozen=True)
class LevyComponent:
    """One catastrophic risk process.

    ``drift`` is the per-unit-time trend, ``diffusion`` the Brownian
    coefficient, ``jump_rate`` the Poisson arrival rate of losses, and
    ``commencement`` the time the process starts existing.
    """

    component_id: str
    drift: float
    diffusion: float
    jump_rate: float
    severity: SeverityDistribution
    category: RiskCategory = RiskCategory.OBSERVED
    commencement: float = 0.0

    def __post_init__(self):
        require("drift", self.drift)
        require("diffusion", self.diffusion, "[0, inf)")
        require("jump_rate", self.jump_rate, "[0, inf)")
        require("commencement", self.commencement, "[0, inf)")

    def reclassify(self, category: RiskCategory) -> "LevyComponent":
        """Move the component forward along sds -> imagined -> observed."""
        if _CATEGORY_ORDER[category] < _CATEGORY_ORDER[self.category]:
            raise DomainError(
                f"cannot reclassify {self.category.value} as {category.value}: "
                "category transitions are irreversible"
            )
        return replace(self, category=category)


@dataclass(frozen=True)
class PathSample:
    """One simulated trajectory, reduced to its sufficient statistics."""

    component_id: str
    horizon: float
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    brownian_terminal: float
    terminal_value: float

    def __post_init__(self):
        import numpy as np
        if len(self.jump_times) != len(self.jump_sizes):
            raise ParameterError("jump_times and jump_sizes must have equal length")
        times = np.asarray(self.jump_times)
        if times.size > 1 and (times[1:] < times[:-1]).any():
            raise ParameterError("jump_times must be sorted")

    @property
    def jump_count(self) -> int:
        return len(self.jump_times)


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each run of ``counts[i]`` consecutive values, 0.0 for an empty run.

    Every path sum goes through this one ``np.add.reduceat``: a run's sum is
    the same whether it is reduced alone or inside a block, which ``np.sum``
    (summing in another order) does not match bit for bit.
    """
    import numpy as np
    sums = np.zeros(len(counts))
    nonempty = counts > 0
    if nonempty.any():
        starts = np.cumsum(counts) - counts
        sums[nonempty] = np.add.reduceat(values, starts[nonempty])
    return sums


def _terminal_values(
    drift: float,
    diffusion: float,
    elapsed: float,
    brownian: np.ndarray,
    jump_sizes: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    # the one expression for a terminal value: recomputing one path's from
    # its slice of a block gives the block's value bit for bit
    return drift * elapsed + diffusion * brownian - _segment_sums(jump_sizes, counts)


def derive_seed(root_seed: int, component_id: str, block_index: int) -> int:
    """Deterministic seed of block ``block_index`` of a component's
    :func:`sample_blocks` stream under one experiment root seed."""
    import numpy as np
    require("root_seed", root_seed, "[0, inf)", DomainError)
    require("block_index", block_index, "[0, inf)", DomainError)
    digest = hashlib.sha256(component_id.encode("utf-8")).digest()
    tag = int.from_bytes(digest[:8], "little")
    ss = np.random.SeedSequence([root_seed, tag, block_index])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class PathBlock:
    """``len(counts)`` trajectories of one component, stored flat: path ``i``
    owns the ``counts[i]`` jumps that follow the ``counts[:i].sum()`` before it
    in ``jump_times`` (sorted within each path) and ``jump_sizes``."""

    component_id: str
    horizon: float
    counts: np.ndarray
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    brownian_terminals: np.ndarray
    terminal_values: np.ndarray

    def paths(self) -> list[PathSample]:
        """One :class:`PathSample` per path, its jump arrays views into the block."""
        import numpy as np
        ends = np.cumsum(self.counts).tolist()
        starts = [0, *ends[:-1]]
        return [
            PathSample(
                component_id=self.component_id,
                horizon=self.horizon,
                jump_times=self.jump_times[start:end],
                jump_sizes=self.jump_sizes[start:end],
                brownian_terminal=brownian,
                terminal_value=terminal,
            )
            for start, end, brownian, terminal in zip(
                starts, ends, self.brownian_terminals.tolist(), self.terminal_values.tolist()
            )
        ]


def simulate_block(
    component: LevyComponent, horizon: float, seed: int, n: int
) -> PathBlock:
    """Simulate ``n`` trajectories of ``component`` up to ``horizon`` from one
    generator.

    Jump counts are Poisson(jump_rate * elapsed); each path's jump times are
    the sorted order statistics of uniforms on the window; jump sizes are
    i.i.d. from the severity distribution. Equal arguments give bit-identical
    blocks.
    """
    import numpy as np
    if horizon < component.commencement:
        raise DomainError(
            f"horizon {horizon} precedes commencement {component.commencement}"
        )
    require("n", n, "[0, inf)", DomainError)
    elapsed = horizon - component.commencement
    rng = np.random.default_rng(seed)
    # draw order is part of the determinism contract: every count, then every
    # time, then every size, then every Brownian terminal
    counts = rng.poisson(component.jump_rate * elapsed, n)
    total = int(counts.sum())
    times = rng.uniform(component.commencement, horizon, total)
    sizes = component.severity.sample(rng, total)
    brownian = rng.normal(0.0, math.sqrt(elapsed), n)
    owner = np.repeat(np.arange(n), counts)
    times = times[np.lexsort((times, owner))]
    return PathBlock(
        component_id=component.component_id,
        horizon=horizon,
        counts=counts,
        jump_times=times,
        jump_sizes=sizes,
        brownian_terminals=brownian,
        terminal_values=_terminal_values(
            component.drift, component.diffusion, elapsed, brownian, sizes, counts
        ),
    )


def sample_path(component: LevyComponent, horizon: float, seed: int) -> PathSample:
    """Simulate one trajectory of ``component`` up to ``horizon``: the one-path
    :func:`simulate_block`. Equal seeds give bit-identical paths."""
    return simulate_block(component, horizon, seed, 1).paths()[0]


# paths per block of sample_blocks: part of the stream, not a setting
PATH_BLOCK = 1024


def block_seeds(
    component_id: str, root_seed: int, n_paths: int
) -> Iterator[tuple[int, int]]:
    """The ``(seed, n)`` of each block of ``n_paths`` trajectories under one
    root seed: blocks of PATH_BLOCK paths (the last holds the rest), block b
    seeded with derive_seed's seed for b. :func:`simulate_block` of each gives
    :func:`sample_blocks`' blocks."""
    require("n_paths", n_paths, "[0, inf)", DomainError)
    return (
        (derive_seed(root_seed, component_id, b), min(PATH_BLOCK, n_paths - first))
        for b, first in enumerate(range(0, n_paths, PATH_BLOCK))
    )


def sample_blocks(
    component: LevyComponent, horizon: float, root_seed: int, n_paths: int
) -> Iterator[PathBlock]:
    """``n_paths`` trajectories under one root seed, block by block as
    :func:`block_seeds` lays them out."""
    return (
        simulate_block(component, horizon, seed, n)
        for seed, n in block_seeds(component.component_id, root_seed, n_paths)
    )


def aggregate(components: Sequence[LevyComponent]) -> LevyComponent:
    """Sum independent components with a common commencement into one.

    Drifts and jump rates add, diffusions add in quadrature, and the summed
    severity is the rate-weighted mixture of the component severities.
    """
    if not components:
        raise DomainError("aggregate needs at least one component")
    if len(components) == 1:
        return components[0]
    start = components[0].commencement
    if any(c.commencement != start for c in components):
        raise DomainError(
            "aggregate requires equal commencements; simulate staggered "
            "components separately"
        )
    total_rate = math.fsum(c.jump_rate for c in components)
    if total_rate > 0.0:
        weighted = [(c.jump_rate, c.severity) for c in components if c.jump_rate > 0.0]
        if len(weighted) == 1:
            severity = weighted[0][1]
        else:
            severity = Mixture(
                components=tuple(s for _, s in weighted),
                weights=tuple(w for w, _ in weighted),
            )
    else:
        severity = components[0].severity  # never sampled at rate zero
    if all(c.category is RiskCategory.OBSERVED for c in components):
        category = RiskCategory.OBSERVED
    else:
        category = RiskCategory.IMAGINED
    return LevyComponent(
        component_id="+".join(c.component_id for c in components),
        drift=math.fsum(c.drift for c in components),
        diffusion=math.sqrt(math.fsum(c.diffusion**2 for c in components)),
        jump_rate=total_rate,
        severity=severity,
        category=category,
        commencement=start,
    )


def theoretical_moments(component: LevyComponent, horizon: float) -> tuple[float, float]:
    """Closed-form ``(mean, variance)`` of the terminal value.

    mean = drift * dt - rate * dt * E[Z]; variance = diffusion^2 * dt +
    rate * dt * E[Z^2]. Raises if the severity variance is undefined.
    """
    if horizon < component.commencement:
        raise DomainError(
            f"horizon {horizon} precedes commencement {component.commencement}"
        )
    dt = horizon - component.commencement
    xi = component.severity.mean()
    second = component.severity.second_moment()
    mean = component.drift * dt - component.jump_rate * dt * xi
    variance = component.diffusion**2 * dt + component.jump_rate * dt * second
    return mean, variance


_PATH_CSV_HEADER = ["component_id", "path_index", "jump_time", "jump_size", "terminal_value"]


class _Echo:
    """A file whose ``write`` returns its text, so that ``csv.writer.writerow``
    returns the row it would have written."""

    @staticmethod
    def write(text: str) -> str:
        return text


# the csv module quotes a field holding a character of the line terminator;
# under "\n" alone it would leave a "\r" bare, and a reader splits the row there
_CRLF_ROW = csv.writer(_Echo(), lineterminator="\r\n").writerow


def csv_line(fields: Iterable) -> str:
    """One CSV row ending in "\n", every field that holds "\n" or "\r" quoted."""
    return _CRLF_ROW(fields)[:-2] + "\n"


def write_paths_csv(paths: Iterable[PathSample], out: IO[str], start: int = 0) -> None:
    """One row per jump plus a terminal row carrying the terminal value.

    ``path_index`` counts the paths of the call from ``start``, across
    components. The header goes out only when ``start`` is 0, so calls that
    each carry on the index from the last (one per block, say) write the
    same bytes as one call over every path. Float cells are the ``repr`` of
    the Python float, which round-trips exactly. Each path's rows go out in
    one ``out.write``.
    """
    import numpy as np
    if start == 0:
        out.write(csv_line(_PATH_CSV_HEADER))
    quoted_ids: dict[str, str] = {}
    for index, path in enumerate(paths, start):
        cid = path.component_id
        if cid not in quoted_ids:
            quoted_ids[cid] = csv_line([cid, ""])[:-1]
        prefix = f"{quoted_ids[cid]}{index},"
        times = np.asarray(path.jump_times, dtype=float).tolist()
        sizes = np.asarray(path.jump_sizes, dtype=float).tolist()
        rows = [f"{prefix}{t!r},{z!r},\n" for t, z in zip(times, sizes)]
        rows.append(
            f"{prefix}{float(path.horizon)!r},0.0,{float(path.terminal_value)!r}\n"
        )
        out.write("".join(rows))
