"""Path simulation, aggregation, and theoretical moments."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from darkspec import (
    Degenerate,
    DomainError,
    Exponential,
    LevyComponent,
    LogNormal,
    Mixture,
    ParameterError,
    Pareto,
    PathSample,
    RiskCategory,
    aggregate,
    derive_seed,
    sample_path,
    sample_paths,
    simulate_block,
    theoretical_moments,
    write_paths_csv,
)
from darkspec.process import PATH_BLOCK, csv_line, sample_blocks


def comp(cid="k", drift=0.0, diffusion=0.0, rate=0.0, severity=None, start=0.0,
         category=RiskCategory.OBSERVED):
    return LevyComponent(
        component_id=cid,
        drift=drift,
        diffusion=diffusion,
        jump_rate=rate,
        severity=severity if severity is not None else Exponential.from_mean(1.0),
        category=category,
        commencement=start,
    )


class TestSamplePath:
    def test_zero_length_window_gives_empty_zero_path(self):
        c = comp(drift=2.0, diffusion=1.0, rate=3.0, start=1.5)
        path = sample_path(c, 1.5, seed=42)
        assert path.jump_count == 0
        assert path.terminal_value == 0.0

    def test_deterministic_drift_only(self):
        c = comp(drift=1.0)
        path = sample_path(c, 5.0, seed=9)
        assert path.jump_count == 0
        assert path.terminal_value == 5.0  # exactly

    def test_horizon_before_commencement_rejected(self):
        with pytest.raises(DomainError):
            sample_path(comp(start=2.0), 1.0, seed=0)

    def test_equal_seeds_give_bit_identical_paths(self):
        c = comp(drift=0.3, diffusion=0.7, rate=2.0, severity=Exponential(0.25))
        a = sample_path(c, 20.0, seed=123)
        b = sample_path(c, 20.0, seed=123)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.jump_sizes, b.jump_sizes)
        assert a.brownian_terminal == b.brownian_terminal
        assert a.terminal_value == b.terminal_value

    def test_wald_mean_monte_carlo(self):
        # lambda=2, Exp(rate 0.5) so mean jump 2; over T=100 the expected
        # total loss is 2*100*2 = 400
        c = comp(rate=2.0, severity=Exponential(rate=0.5))
        losses = np.array([-p.terminal_value for p in sample_paths(c, 100.0, 31, 10_000)])
        se = losses.std(ddof=1) / math.sqrt(len(losses))
        assert abs(losses.mean() - 400.0) <= 3.0 * se

    def test_jump_times_lie_in_window_and_sorted(self):
        c = comp(rate=5.0, start=2.0)
        path = sample_path(c, 12.0, seed=77)
        assert np.all(path.jump_times >= 2.0)
        assert np.all(path.jump_times <= 12.0)
        assert np.all(np.diff(path.jump_times) >= 0.0)

    def test_jump_count_law_chi_square(self):
        # counts over 10,000 paths vs Poisson(lambda * dt) at alpha = 0.01
        c = comp(rate=2.0, start=1.0)
        dt = 2.0
        counts = np.array([p.jump_count for p in sample_paths(c, 1.0 + dt, 17, 10_000)])
        mean = c.jump_rate * dt
        top = int(counts.max()) + 1
        observed = np.bincount(counts, minlength=top + 1).astype(float)
        expected = np.array(
            [stats.poisson.pmf(k, mean) for k in range(top)] + [stats.poisson.sf(top - 1, mean)]
        ) * len(counts)
        # merge the tail until every expected cell is at least 5
        while len(expected) > 2 and expected[-1] < 5.0:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected = expected[:-1]
            observed = observed[:-1]
        result = stats.chisquare(observed, expected)
        assert result.pvalue >= 0.01


@st.composite
def components(draw):
    rate = draw(st.floats(0.0, 4.0))
    severity = draw(
        st.sampled_from(
            [Exponential.from_mean(2.0), Degenerate(3.0), Exponential(rate=1.5)]
        )
    )
    start = draw(st.floats(0.0, 2.0))
    return LevyComponent(
        component_id=draw(st.sampled_from(["a", "b"])),
        drift=draw(st.floats(-3.0, 3.0)),
        diffusion=draw(st.floats(0.0, 2.0)),
        jump_rate=rate,
        severity=severity,
        commencement=start,
    )


class TestReconstruction:
    @given(components(), st.floats(0.0, 6.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_terminal_value_reconstructs_exactly(self, component, extra, seed):
        horizon = component.commencement + extra
        path = sample_path(component, horizon, seed)
        assert path.reconstruct_terminal(component) == path.terminal_value


@st.composite
def kernel_components(draw):
    severity = draw(
        st.sampled_from(
            [
                Exponential.from_mean(2.0),
                LogNormal(mu=-0.5, sigma=1.2),
                Pareto(scale=1.0, shape=2.5),
                Mixture((Degenerate(3.0), Pareto(scale=2.0, shape=1.5)), (1.0, 2.0)),
            ]
        )
    )
    return LevyComponent(
        component_id=draw(st.sampled_from(["a", "b"])),
        drift=draw(st.floats(-3.0, 3.0)),
        diffusion=draw(st.floats(0.0, 2.0)),
        jump_rate=draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0))),
        severity=severity,
        commencement=draw(st.floats(0.0, 2.0)),
    )


def assert_same_block(a, b):
    assert a.component_id == b.component_id and a.horizon == b.horizon
    for name in ("counts", "jump_times", "jump_sizes", "brownian_terminals", "terminal_values"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestBlockKernel:
    @given(
        kernel_components(),
        st.one_of(st.just(0.0), st.floats(0.0, 6.0)),  # 0: horizon == commencement
        st.integers(1, 3000),
        st.integers(0, 2**31 - 1),
    )
    @example(comp(rate=2.0, severity=Pareto(1.0, 2.5), start=1.0), 2.0, 3000, 7)
    @settings(max_examples=40, deadline=None)
    def test_blocks_are_independent_sorted_and_reconstruct(self, component, extra, n, seed):
        horizon = component.commencement + extra
        blocks = list(sample_blocks(component, horizon, seed, n))
        assert [len(block.counts) for block in blocks] == [
            min(PATH_BLOCK, n - first) for first in range(0, n, PATH_BLOCK)
        ]
        for b, block in enumerate(blocks):
            alone = simulate_block(
                component, horizon, derive_seed(seed, component.component_id, b),
                len(block.counts),
            )
            assert_same_block(alone, block)
            assert block.counts.sum() == len(block.jump_sizes) == len(block.jump_times)
            paths = block.paths()  # PathSample checks each path's times are sorted
            assert [p.jump_count for p in paths] == block.counts.tolist()
            assert np.all(block.jump_times >= component.commencement)
            assert np.all(block.jump_times <= horizon)
            for path, terminal in zip(paths, block.terminal_values.tolist()):
                assert path.terminal_value == terminal
                assert path.reconstruct_terminal(component) == path.terminal_value

    @given(kernel_components(), st.floats(0.0, 6.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_sample_path_is_the_one_path_block(self, component, extra, seed):
        horizon = component.commencement + extra
        path = sample_path(component, horizon, seed)
        block = simulate_block(component, horizon, seed, 1)
        assert block.counts.tolist() == [path.jump_count]
        assert np.array_equal(block.jump_times, path.jump_times)
        assert np.array_equal(block.jump_sizes, path.jump_sizes)
        assert block.brownian_terminals.tolist() == [path.brownian_terminal]
        assert block.terminal_values.tolist() == [path.terminal_value]

    def test_sample_path_draws_are_pinned(self):
        # the draws sample_path made before it became the one-path block
        c = comp(drift=0.25, diffusion=0.5, rate=1.5, severity=Pareto(1.0, 2.5), start=1.0)
        path = sample_path(c, 4.0, seed=2024)
        assert path.jump_times.tolist() == [
            1.236176601285997, 1.508857749121145, 1.542471441090564,
            2.078940675068053, 2.7662779466191907,
        ]
        assert path.jump_sizes.tolist() == [
            1.1683495184132593, 1.1907904891082697, 1.3339820825313615,
            1.0006011622502247, 1.0483238443622336,
        ]
        assert path.brownian_terminal == -2.384034291534199

    def test_unsorted_jump_times_rejected(self):
        with pytest.raises(ParameterError, match="sorted"):
            PathSample("k", 5.0, np.array([-1e308, 1e308, 2.0]), np.zeros(3), 0.0, 0.0)
        PathSample("k", 5.0, np.array([-1e308, 1e308, np.inf]), np.zeros(3), 0.0, 0.0)

    def test_empty_block_and_bad_arguments(self):
        c = comp(rate=2.0)
        empty = simulate_block(c, 3.0, seed=1, n=0)
        assert empty.counts.size == empty.jump_sizes.size == empty.terminal_values.size == 0
        assert empty.paths() == []
        with pytest.raises(DomainError):
            simulate_block(c, 3.0, seed=1, n=-1)
        with pytest.raises(DomainError):
            simulate_block(comp(start=2.0), 1.0, seed=1, n=3)


class TestSeedDerivation:
    def test_path_sets_are_order_independent(self):
        # sample_paths is the block stream: block b is simulate_block under
        # derive_seed(root, id, b), whichever block is drawn first
        c = comp(drift=0.5, diffusion=1.0, rate=1.0)
        batch = sample_paths(c, 10.0, root_seed=5, n_paths=PATH_BLOCK + 40)
        second = simulate_block(c, 10.0, derive_seed(5, "k", 1), 40)  # drawn first
        first = simulate_block(c, 10.0, derive_seed(5, "k", 0), PATH_BLOCK)
        individually = first.paths() + second.paths()
        assert len(batch) == len(individually) == PATH_BLOCK + 40
        for want, got in zip(batch, individually):
            assert np.array_equal(want.jump_times, got.jump_times)
            assert np.array_equal(want.jump_sizes, got.jump_sizes)
            assert want.brownian_terminal == got.brownian_terminal
            assert want.terminal_value == got.terminal_value
        with pytest.raises(DomainError, match="n_paths"):
            sample_blocks(c, 10.0, 5, -1)  # at the call, before any block is drawn

    def test_distinct_components_get_distinct_streams(self):
        assert derive_seed(1, "a", 0) != derive_seed(1, "b", 0)
        assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
        assert derive_seed(1, "a", 0) == derive_seed(1, "a", 0)


class TestAggregate:
    def test_identity(self):
        c = comp(drift=1.0, diffusion=0.5, rate=2.0)
        assert aggregate([c]) is c

    def test_additive_identity_with_zero_component(self):
        c = comp(cid="a", drift=1.0, diffusion=0.5, rate=2.0,
                 severity=Exponential.from_mean(2.0))
        zero = comp(cid="z", drift=0.0, diffusion=0.0, rate=0.0)
        total = aggregate([c, zero])
        assert total.drift == c.drift
        assert total.diffusion == c.diffusion
        assert total.jump_rate == c.jump_rate
        assert total.severity == c.severity

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            aggregate([])

    def test_mixed_commencements_rejected(self):
        with pytest.raises(DomainError):
            aggregate([comp(cid="a", start=0.0), comp(cid="b", start=1.0)])

    def test_category_observed_only_when_all_observed(self):
        a = comp(cid="a", rate=1.0)
        b = comp(cid="b", rate=1.0, category=RiskCategory.IMAGINED)
        assert aggregate([a, b]).category is RiskCategory.IMAGINED
        assert aggregate([a, comp(cid="c", rate=1.0)]).category is RiskCategory.OBSERVED

    def test_severity_is_rate_weighted_mixture(self):
        a = comp(cid="a", rate=1.0, severity=Exponential.from_mean(2.0))
        b = comp(cid="b", rate=3.0, severity=Exponential.from_mean(4.0))
        total = aggregate([a, b])
        assert isinstance(total.severity, Mixture)
        assert total.severity.weights == (0.25, 0.75)
        assert total.severity.mean() == pytest.approx(0.25 * 2.0 + 0.75 * 4.0)

    def test_summed_jump_loss_monte_carlo(self):
        # (rate 1, mean 2) + (rate 3, mean 4) over T=50: expected total loss
        # (1*2 + 3*4) * 50 = 700
        a = comp(cid="a", rate=1.0, severity=Exponential.from_mean(2.0))
        b = comp(cid="b", rate=3.0, severity=Exponential.from_mean(4.0))
        total = aggregate([a, b])
        losses = np.array(
            [-p.terminal_value for p in sample_paths(total, 50.0, 101, 10_000)]
        )
        se = losses.std(ddof=1) / math.sqrt(len(losses))
        assert abs(losses.mean() - 700.0) <= 3.0 * se

    def test_moments_add_across_components(self):
        a = comp(cid="a", drift=0.5, diffusion=1.0, rate=2.0,
                 severity=Exponential.from_mean(3.0))
        b = comp(cid="b", drift=-0.2, diffusion=0.5, rate=1.0, severity=Degenerate(2.0))
        total = aggregate([a, b])
        at, bt, tt = (theoretical_moments(c, 10.0) for c in (a, b, total))
        assert tt.mean == pytest.approx(at.mean + bt.mean)
        assert tt.variance == pytest.approx(at.variance + bt.variance)


class TestTheoreticalMoments:
    def test_pure_brownian(self):
        m = theoretical_moments(comp(drift=1.5, diffusion=2.0), 4.0)
        assert m.mean == pytest.approx(6.0)
        assert m.variance == pytest.approx(16.0)

    def test_degenerate_point_mass(self):
        m = theoretical_moments(comp(rate=1.0, severity=Degenerate(5.0)), 1.0)
        assert m.mean == pytest.approx(-5.0)
        assert m.variance == pytest.approx(25.0)

    def test_heavy_tail_variance_undefined(self):
        from darkspec import Pareto, VarianceUndefinedError

        c = comp(rate=1.0, severity=Pareto(scale=1.0, shape=1.5))
        with pytest.raises(VarianceUndefinedError):
            theoretical_moments(c, 1.0)

    def test_compound_variance_monte_carlo(self):
        # rate 2, Exp mean 3 over dt=10: variance 2*10*(9+9) = 360
        c = comp(rate=2.0, severity=Exponential.from_mean(3.0))
        m = theoretical_moments(c, 10.0)
        assert m.variance == pytest.approx(360.0)
        terminals = np.array(
            [p.terminal_value for p in sample_paths(c, 10.0, 19, 20_000)]
        )
        assert np.var(terminals, ddof=1) == pytest.approx(360.0, rel=0.05)


class TestComponentGuards:
    @pytest.mark.parametrize(
        "kwarg, name",
        [("drift", "drift"), ("diffusion", "diffusion"), ("rate", "jump_rate"),
         ("start", "commencement")],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, kwarg, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            comp(**{kwarg: value})


class TestCategoryTransitions:
    def test_forward_transitions_allowed(self):
        c = comp(category=RiskCategory.SDS)
        imagined = c.reclassify(RiskCategory.IMAGINED)
        observed = imagined.reclassify(RiskCategory.OBSERVED)
        assert observed.category is RiskCategory.OBSERVED

    def test_backward_transitions_rejected(self):
        c = comp(category=RiskCategory.OBSERVED)
        with pytest.raises(DomainError):
            c.reclassify(RiskCategory.IMAGINED)


class TestCsvExport:
    def test_jump_rows_then_terminal_row(self):
        c = comp(rate=2.0, severity=Exponential.from_mean(1.0))
        path = sample_path(c, 5.0, seed=3)
        out = io.StringIO()
        write_paths_csv([path], out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "component_id,path_index,jump_time,jump_size,terminal_value"
        assert len(lines) == 2 + path.jump_count
        last = lines[-1].split(",")
        assert last[2] == repr(5.0)
        assert last[3] == repr(0.0)
        assert float(last[4]) == path.terminal_value
        for row in lines[1:-1]:
            assert row.endswith(",")  # jump rows leave terminal_value empty

    def test_export_is_deterministic(self):
        c = comp(rate=1.0)
        a, b = io.StringIO(), io.StringIO()
        write_paths_csv([sample_path(c, 5.0, 8)], a)
        write_paths_csv([sample_path(c, 5.0, 8)], b)
        assert a.getvalue() == b.getvalue()

    def test_path_index_runs_across_components(self):
        a = sample_paths(comp(cid="a", rate=1.0), 5.0, 4, 2)
        b = sample_paths(comp(cid="b", rate=1.0), 5.0, 4, 2)
        out = io.StringIO()
        write_paths_csv(a + b, out)
        rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
        terminal_rows = [row for row in rows if row[4] != ""]
        assert [(row[0], row[1]) for row in terminal_rows] == [
            ("a", "0"), ("a", "1"), ("b", "2"), ("b", "3")
        ]
        assert len(rows) == sum(p.jump_count + 1 for p in a + b)


def reference_write_paths_csv(paths, out):
    """The one-``writerow``-per-row writer that ``write_paths_csv`` replaced."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["component_id", "path_index", "jump_time", "jump_size", "terminal_value"])
    for index, path in enumerate(paths):
        for t, z in zip(path.jump_times, path.jump_sizes):
            writer.writerow([path.component_id, index, repr(float(t)), repr(float(z)), ""])
        writer.writerow(
            [path.component_id, index, repr(float(path.horizon)), repr(0.0),
             repr(float(path.terminal_value))]
        )


CSV_FLOATS = st.one_of(
    st.sampled_from([5e-324, 1.5e-310, -2.2e-308, 1e16, -1e16, 1e300, -1e300, -0.0, 0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# ids the csv module must quote, or that are unusual
PARSEABLE_IDS = st.one_of(
    st.sampled_from([
        "a,b", 'q"x', "new\nline", "", "\u00e9t\u00e9", "\u98ce\u9669", " k ", "a\rb", "\r", "\r\n",
    ]),
    st.text(max_size=6),
)


@st.composite
def path_lists(draw, ids):
    paths = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 5))
        times = sorted(draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n)))
        sizes = draw(st.lists(CSV_FLOATS, min_size=n, max_size=n))
        paths.append(
            PathSample(
                component_id=draw(ids),
                horizon=draw(CSV_FLOATS),
                jump_times=np.array(times, dtype=float),
                jump_sizes=np.array(sizes, dtype=float),
                brownian_terminal=0.0,
                terminal_value=draw(CSV_FLOATS),
            )
        )
    return paths


class TestCsvWriterMatchesReference:
    # the reference quotes by the "\n" terminator, so it leaves a "\r" bare
    @given(path_lists(PARSEABLE_IDS.filter(lambda cid: "\r" not in cid)))
    @example([PathSample("k", 5, np.array([1, 2]), [3, 4], 0.0, -7)])  # ints and a list
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_reference(self, paths):
        out, ref = io.StringIO(), io.StringIO()
        write_paths_csv(paths, out)
        reference_write_paths_csv(paths, ref)
        assert out.getvalue() == ref.getvalue()

    @given(path_lists(PARSEABLE_IDS))
    @settings(max_examples=200, deadline=None)
    def test_float_cells_round_trip(self, paths):
        out = io.StringIO()
        write_paths_csv(paths, out)
        rows = list(csv.reader(io.StringIO(out.getvalue(), newline="")))
        expected = []
        for index, path in enumerate(paths):
            for t, z in zip(path.jump_times, path.jump_sizes):
                expected.append((path.component_id, index, t, z, None))
            expected.append((path.component_id, index, path.horizon, 0.0, path.terminal_value))
        assert len(rows) == 1 + len(expected)
        for row, (cid, index, t, z, terminal) in zip(rows[1:], expected):
            assert row[0] == cid
            assert int(row[1]) == index
            assert float(row[2]) == t
            assert float(row[3]) == z
            assert (row[4] == "") if terminal is None else (float(row[4]) == terminal)


class TestCsvLine:
    @given(st.lists(PARSEABLE_IDS, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_one_row_that_reads_back(self, cells):
        line = csv_line(cells)
        assert list(csv.reader(io.StringIO(line, newline=""))) == [cells]
        assert line.endswith("\n") and not line.endswith("\r\n")
        if not any("\r" in cell for cell in cells):
            # what the package's "\n" writers wrote before, byte for byte
            reference = io.StringIO()
            csv.writer(reference, lineterminator="\n").writerow(cells)
            assert line == reference.getvalue()
