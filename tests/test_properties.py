"""Property tests: the arm split, the closed-form mean bound, all seven
band methods and the block-derived replication seeds against eager
reference computations."""

import math
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concate.bands import METHODS, TRUNCATION_METHODS, BandOptions, compute_band
from concate.concentration import BernsteinConstants, Truncation, _mean_bounds
from concate.errors import ConcateError, ConfigurationError, DegenerateArmError
from concate.estimators import GroupStats, group_stats, split_arms
from concate.manski import SupportBounds, wald_interval
from concate.montecarlo import MAX_REPS, MC_DESIGNS, DgpSpec, _replication_seeds, replication_seed
from concate.panel import PanelDataset, PanelSchema, _load_columns, _load_rows, assign_treatment
from delta_oracle import bound_gradients, endpoint_se, sampling_covariance

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def _eager_arm(values):
    if values.size == 0:
        return math.nan, math.nan, math.nan, math.nan
    var = float(values.var(ddof=1)) if values.size >= 2 else math.nan
    return float(values.mean()), var, float(values.min()), float(values.max())


def eager_split(y, z):
    """The split as first written: each arm copied by boolean indexing."""
    y1, y0 = y[z], y[~z]
    n1, n0 = y1.size, y0.size
    mean1, var1, min1, max1 = _eager_arm(y1)
    mean0, var0, min0, max0 = _eager_arm(y0)
    return GroupStats(
        n_treated=n1, n_control=n0,
        mean_treated=mean1, mean_control=mean0,
        var_treated=var1, var_control=var0,
        share_treated=n1 / (n1 + n0), share_control=n0 / (n1 + n0),
        min_treated=min1, max_treated=max1, min_control=min0, max_control=max0,
        treated_serial=y1, control_serial=y0,
    )


@st.composite
def samples(draw, min_arm=0):
    """Outcomes with ties, negative values and large offsets, and a treatment
    mask made of short runs (row by row) or of a few long runs."""
    n = draw(st.integers(max(1, 2 * min_arm), 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1e8, -1e8, -3.7]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e6]))
    tied = rng.integers(-4, 5, n).astype(float)
    spread = rng.uniform(-1.0, 1.0, n)
    y = offset + scale * np.where(rng.random(n) < draw(st.floats(0.0, 1.0)), tied, spread)
    if draw(st.booleans()):
        z = rng.random(n) < draw(st.floats(0.0, 1.0))
    else:
        z = np.zeros(n, dtype=bool)
        for k, cut in enumerate(sorted(draw(st.lists(st.integers(0, n), max_size=3)))):
            z[cut:] = k % 2 == 0
        z ^= draw(st.booleans())
    if min_arm:
        # move rows into the short arm until both reach min_arm
        while z.sum() < min_arm:
            z[np.flatnonzero(~z)[0]] = True
        while (~z).sum() < min_arm:
            z[np.flatnonzero(z)[0]] = False
    return y, z


def same_bits(a, b):
    return np.asarray(a).dtype == np.asarray(b).dtype and (
        np.asarray(a).tobytes() == np.asarray(b).tobytes()
    )


@PROPERTY_SETTINGS
@given(samples())
def test_split_arms_matches_the_eager_split_bit_for_bit(sample):
    y, z = sample
    got, want = split_arms(y, z), eager_split(y, z)
    for name in ("treated_serial", "control_serial"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    for name in (
        "n_treated", "n_control", "mean_treated", "mean_control", "var_treated",
        "var_control", "share_treated", "share_control", "min_treated", "max_treated",
        "min_control", "max_control",
    ):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


MASK_SHAPES = ("all treated", "all control", "one row", "one flip", "random", "runs", "2-D")


@st.composite
def masked_samples(draw):
    """A treatment mask of one of ``MASK_SHAPES`` and outcomes of its shape.
    "runs" alternates arms in runs of 2 to 500 rows; "2-D" is a matrix,
    sometimes a transposed (non-contiguous) view."""
    shape = draw(st.sampled_from(MASK_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 3000))
    if shape == "all treated":
        z = np.ones(n, dtype=bool)
    elif shape == "all control":
        z = np.zeros(n, dtype=bool)
    elif shape == "one row":
        z = np.array([draw(st.booleans())])
    elif shape == "one flip":
        z = (np.arange(n) >= draw(st.integers(1, n - 1))) ^ draw(st.booleans())
    elif shape == "random":
        z = rng.random(n) < draw(st.floats(0.0, 1.0))
    elif shape == "runs":
        lengths = rng.integers(2, draw(st.integers(3, 501)), n // 2 + 1)
        z = np.repeat(np.arange(lengths.size) % 2 == draw(st.integers(0, 1)), lengths)[:n]
    else:
        z = rng.random((draw(st.integers(1, 40)), draw(st.integers(1, 40)))) < 0.5
        if draw(st.booleans()):
            z = z.T
    y = draw(st.sampled_from([0.0, 1e8, -3.7])) + rng.standard_normal(z.shape)
    if z.ndim == 2 and not z.flags.c_contiguous:
        y = np.ascontiguousarray(y.T).T
    return y, z


@PROPERTY_SETTINGS
@given(masked_samples())
def test_index_gather_matches_the_boolean_copy(sample):
    y, z = sample
    got, want = split_arms(y, z), eager_split(y, z)
    for name, arm in (("treated_serial", y[z]), ("control_serial", y[~z])):
        value = getattr(got, name)
        assert value.dtype == np.float64 and value.flags.c_contiguous, name
        assert same_bits(value, arm), name
    for field in fields(GroupStats):
        if field.type != "np.ndarray":
            name = field.name
            assert repr(getattr(got, name)) == repr(getattr(want, name)), name


@PROPERTY_SETTINGS
@given(samples(min_arm=1))
def test_closed_form_mean_bound_equals_the_largest_deviation(sample):
    stats = split_arms(*sample)
    m1, m0 = _mean_bounds(stats, BandOptions())
    assert repr(m1) == repr(float(np.max(np.abs(stats.treated_serial - stats.mean_treated))))
    assert repr(m0) == repr(float(np.max(np.abs(stats.control_serial - stats.mean_control))))


def _outcome(stats, method, alpha_u, options=None):
    try:
        return repr(compute_band(stats, method, alpha_u, options))
    except ConcateError as exc:
        return f"{type(exc).__name__}: {exc}"


@PROPERTY_SETTINGS
@given(samples(min_arm=1), st.sampled_from([0.001, 0.05, 0.3]))
def test_every_method_matches_the_eagerly_sorted_oracle(sample, alpha_u):
    lazy, eager = split_arms(*sample), eager_split(*sample)
    for method in METHODS:
        assert _outcome(lazy, method, alpha_u) == _outcome(eager, method, alpha_u), method


@PROPERTY_SETTINGS
@given(samples(min_arm=2))
def test_iid_band_with_the_closed_form_bound_equals_the_scanned_one(sample):
    stats = split_arms(*sample)
    scanned = BandOptions(
        mean_bound_treated=float(np.max(np.abs(stats.treated_serial - stats.mean_treated))),
        mean_bound_control=float(np.max(np.abs(stats.control_serial - stats.mean_control))),
    )
    assert _outcome(stats, "iid", 0.05) == _outcome(stats, "iid", 0.05, scanned)


#: Per-look levels: the ends of (0, 1) and the levels near 1e-16 where
#: 1 - alpha_u / 2 and 1 - alpha_u / 4 round to 1.
LEVELS = st.one_of(
    st.sampled_from([1e-300, 1e-100, 1e-16, 2.2e-16, 4.4e-16, 1e-9, 0.05, 0.5, 0.999999]),
    st.floats(-300.0, -1e-9).map(lambda e: 10.0**e),
)
#: A knob that must be positive, from the smallest float to 1e308.
POSITIVE = st.one_of(st.sampled_from([5e-324, 1e-300, 1.0, 1e150, 1e308]), st.floats(1e-300, 1e308))
NONNEGATIVE = st.one_of(st.just(0.0), POSITIVE)
GAPS = st.sampled_from([0.0, 1e-3, 1.0, 1e8, 1e300])


@st.composite
def knobs(draw, kind, y):
    """``BandOptions`` with every knob drawn to the ends of its valid range,
    and a truncation of ``kind`` around the outcomes ``y``; a negative
    ``sign`` puts a limit inside the observed range."""
    sign = draw(st.sampled_from([1.0, -1.0]))
    lower = None if kind == "none" else float(y.min()) - sign * draw(GAPS)
    upper = None if kind != "both" else max(lower, float(y.max()) + sign * draw(GAPS))
    return BandOptions(
        c_alpha=draw(NONNEGATIVE),
        c_abs=draw(POSITIVE),
        mean_bound_treated=draw(st.none() | NONNEGATIVE),
        mean_bound_control=draw(st.none() | NONNEGATIVE),
        bernstein=BernsteinConstants(
            *(draw(POSITIVE) for _ in range(4)),
            gamma=draw(st.sampled_from([1e-6, 0.5, 0.999999]) | st.floats(1e-6, 0.999999)),
            long_run_var=draw(st.none() | NONNEGATIVE),
        ),
        truncation=Truncation(lower=lower, upper=upper),
    )


def assert_matches_the_matrix_form(stats, band, method):
    """Each delta-method SE of ``method``'s ``band`` against sqrt(g' S g) of the frozen
    matrix form.  Both forms round g' S g; its share term carries an error
    of a few ulps of (p1 p0 / N) M^2, where M is the sum of the magnitudes
    that enter g (the arm means and that end's two support limits), and
    |a - b| <= sqrt(|a^2 - b^2|) turns that into the tolerance
    1e-7 (se + sqrt(p1 p0 / N) M).  The matrix form is evaluated on means,
    variances and supports scaled by a power of two, which is exact, so
    that its products of large gradient entries stay finite."""
    support = band.support
    ends = (
        (band.se_lower, 0, support.lower_treated, support.upper_control),
        (band.se_upper, 1, support.lower_control, support.upper_treated),
    )
    magnitudes = [stats.mean_treated, stats.mean_control, support.lower_treated,
                  support.upper_treated, support.lower_control, support.upper_control]
    scale = 2.0 ** math.frexp(max(abs(v) for v in magnitudes) or 1.0)[1]
    scaled = replace(
        stats,
        mean_treated=stats.mean_treated / scale, mean_control=stats.mean_control / scale,
        var_treated=stats.var_treated / scale / scale,
        var_control=stats.var_control / scale / scale,
    )
    scaled_support = SupportBounds(*(v / scale for v in magnitudes[2:]), source="scaled")
    cov = sampling_covariance(scaled)
    gradients = bound_gradients(scaled, scaled_support)
    share_sd = math.sqrt(stats.share_treated * stats.share_control / stats.n)
    for se, end, lower, upper in ends:
        oracle = scale * endpoint_se(cov, gradients[end])
        m = abs(stats.mean_treated) + abs(stats.mean_control) + abs(lower) + abs(upper)
        assert abs(se - oracle) <= 1e-7 * (se + share_sd * m), (method, end, se, oracle)


@pytest.mark.parametrize("kind", ["none", "lower", "both"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_every_band_is_finite_or_a_concate_error(kind, data):
    """compute_band is the boundary: behind it the kernels check nothing, so
    any input that reaches them must give a finite band or a ConcateError.
    An arm below the method's minimum (one for iid without an upper limit,
    else two) raises exactly the arm-size message, and only then."""
    y, z = data.draw(samples())
    if data.draw(st.booleans()):
        y = np.full_like(y, y[0])
    stats = split_arms(y, z)
    alpha_u = data.draw(LEVELS)
    options = data.draw(knobs(kind, y))
    smallest = min(stats.n_treated, stats.n_control)
    for method in METHODS:
        need = 1 if method == "iid" and kind != "both" else 2
        too_small = smallest < need and (kind == "none" or method in TRUNCATION_METHODS)
        try:
            with np.errstate(all="ignore"):  # an overflow is an outcome under test
                band = compute_band(stats, method, alpha_u, options)
        except ConcateError as exc:
            if too_small:
                wanted = "both arms non-empty" if smallest == 0 else (
                    f"at least {need} observations per arm")
                assert (type(exc), str(exc)) == (DegenerateArmError, f"{method} needs {wanted}")
            else:
                assert "per arm" not in str(exc) and "non-empty" not in str(exc), (method, exc)
            continue
        assert not too_small, method
        assert math.isfinite(band.band_lower) and math.isfinite(band.band_upper), method
        if band.support is None:  # naive: a Wald SE, not the delta method's
            continue
        if band.se_lower is not None:
            assert_matches_the_matrix_form(stats, band, method)
        elif band.support.source == "known":
            # iid and mixing report no SE of the reduction: hybrid's carries it
            reduced = compute_band(stats, "hybrid", alpha_u, options)
            assert (band.band_lower, band.band_upper) == (reduced.band_lower, reduced.band_upper)


@PROPERTY_SETTINGS
@given(
    samples(min_arm=2),
    st.sampled_from([-1e8, -3.7, 0.5, 1e6]) | st.floats(-1e8, 1e8),
    st.sampled_from([0.001, 0.05, 0.3]),
)
def test_a_shift_of_every_outcome_moves_no_region_or_band(sample, shift, alpha_u):
    """Adding a constant a to every outcome leaves each method's region and
    band where it was, up to 1e-12 (1 + |a| + max |y|).  A level that a method
    cannot calibrate (``mixing``'s third Bernstein term on an arm of a few
    rows) fails with the same error at both origins."""
    y, z = sample
    before, after = split_arms(y, z), split_arms(y + shift, z)
    tolerance = 1e-12 * (1.0 + abs(shift) + float(np.max(np.abs(y))))
    for method in METHODS:
        try:
            want = compute_band(before, method, alpha_u)
        except ConfigurationError as exc:
            with pytest.raises(ConfigurationError, match=re.escape(str(exc))):
                compute_band(after, method, alpha_u)
            continue
        got = compute_band(after, method, alpha_u)
        for end in ("region_lower", "region_upper", "band_lower", "band_upper"):
            assert abs(getattr(got, end) - getattr(want, end)) <= tolerance, (method, end)


@st.composite
def reordered_panels(draw):
    """Columns of a balanced panel in unit-major order, and a row order that
    keeps the units' first-appearance order: a random permutation whose
    units are relabelled by the rank of their first appearance."""
    n_units, periods = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = n_units * periods
    unit_of, time_of = np.divmod(rng.permutation(n), periods)
    rank = np.empty(n_units, dtype=np.int64)
    rank[np.argsort(np.unique(unit_of, return_index=True)[1])] = np.arange(n_units)
    signal = rng.uniform(0.0, 100.0, n if draw(st.booleans()) else n_units)
    columns = {
        "unit": np.repeat([f"u{i}" for i in range(n_units)], periods).astype(object),
        "time": np.tile(np.arange(1, periods + 1, dtype=np.int64), n_units),
        "outcome": draw(st.sampled_from([0.0, 1e8, -3.7])) + rng.standard_normal(n).cumsum(),
        "signal": signal if signal.size == n else np.repeat(signal, periods),
    }
    return columns, rank[unit_of] * periods + time_of


@PROPERTY_SETTINGS
@given(reordered_panels(), st.floats(0.0, 100.0))
def test_a_row_order_keeping_the_units_first_appearance_moves_no_band(drawn, tau):
    columns, order = drawn
    panels = [PanelDataset(**columns), PanelDataset(**{k: v[order] for k, v in columns.items()})]
    assert panels[0].unit.tolist() == panels[1].unit.tolist()
    for name in ("time", "outcome", "signal"):
        assert same_bits(getattr(panels[0], name), getattr(panels[1], name)), name
    splits = [group_stats(panel, assign_treatment(panel, tau)) for panel in panels]
    for method in METHODS:
        assert _outcome(splits[0], method, 0.05) == _outcome(splits[1], method, 0.05), method


def test_mean_bound_is_exact_when_the_mean_rounds_outside_the_arm():
    # three copies of 0.1 average above 0.1, six average below it
    stats = split_arms(np.full(9, 0.1), np.arange(9) < 3)
    assert stats.mean_treated > stats.max_treated
    assert stats.mean_control < stats.min_control
    m1, m0 = _mean_bounds(stats, BandOptions())
    assert m1 == float(np.max(np.abs(stats.treated_serial - stats.mean_treated)))
    assert m0 == float(np.max(np.abs(stats.control_serial - stats.mean_control)))


@pytest.mark.parametrize(
    "arm",
    [[-np.inf, 1.0], [1.0, np.inf], [np.nan, 1.0], [np.inf, -np.inf], [1e308, 1e308, -5.0],
     [-1e308, -1e308, 5.0]],
)
def test_mean_bound_follows_the_pass_over_a_non_finite_arm(arm):
    # an infinite mean makes one extremum's difference NaN, and so every |y - mean| pass;
    # split_arms rejects a non-finite outcome, so those arms are built by hand
    y = np.array(arm + [0.0, 2.0])
    split = split_arms if np.isfinite(arm).all() else eager_split
    with np.errstate(invalid="ignore", over="ignore"):
        stats = split(y, np.arange(y.size) < len(arm))
        want = float(np.max(np.abs(stats.treated_serial - stats.mean_treated)))
    m1, _ = _mean_bounds(stats, BandOptions())
    assert repr(m1) == repr(want)


@PROPERTY_SETTINGS
@given(
    st.lists(
        st.tuples(*[st.floats(-1e6, 1e6)] * 2, *[st.floats(0.0, 1e3)] * 2),
        min_size=1, max_size=8,
    ),
    st.floats(1e-6, 0.999),
)
def test_wald_interval_on_arrays_equals_its_float_calls_row_by_row(rows, alpha_u):
    # the look bands call it with floats, the coverage kernel with (B,) arrays
    lower, upper, se_lower, se_upper = (np.array(col) for col in zip(*rows))
    band_lower, band_upper = wald_interval(lower, upper, se_lower, se_upper, alpha_u)
    for i, row in enumerate(rows):
        want = wald_interval(*row, alpha_u)
        assert all(type(end) is float for end in want)
        assert repr((float(band_lower[i]), float(band_upper[i]))) == repr(want)


@PROPERTY_SETTINGS
@given(
    st.integers(0, 200).flatmap(lambda bits: st.integers(0, 2**bits)),
    st.sampled_from(MC_DESIGNS),
    st.integers(1, 2**40),
    st.integers(1, 2**40),
    st.integers(0, MAX_REPS - 1),
    st.integers(1, 5),
    st.integers(0, 999),
)
@example(0, "A", 50, 1, 0, 3, 0)
@example(2**128 - 1, "F", 50, 2, 7, 3, 1)
@example(2**128, "G", 50, 5, 7, 3, 2)
@example(7, "C", 2**32, 1, 0, 3, 0)
def test_block_states_equal_seed_sequence_row_for_row(
    base_seed, design, n_units, periods, first, rows, attempt
):
    # entropy of 1 to 7 words (more than the pool's 4 changes the mixing
    # loop); n_units and periods from 2**32 take two words of the spawn key
    spec = DgpSpec(design=design, n_units=n_units, periods=periods)
    reps = np.arange(first, first + rows, dtype=np.uint32)
    states = _replication_seeds(base_seed, spec).states(reps, attempt)
    assert states.shape == (rows, 4) and states.dtype == np.uint64
    for row in range(rows):
        seq = replication_seed(base_seed, design, n_units, periods, first + row, attempt)
        assert np.array_equal(states[row], seq.generate_state(4, np.uint64))


# CSV cells that numpy's reader and the row parser could take differently:
# quoting, padding, non-ASCII and control bytes, markers, overflow, and
# cells wider than the fast path's byte fields.
UNIT_CELLS = ["f1", "f2", " f3 ", "é", "公司", 'a"b', '"q"', '"x,y"', '"m\nl"', '"m\r\nl"', '"m\rl"',
              "a#b", "", "  ", "u" * 60, "\xa0g", "n\x00", "\x85k", "\tt", '"a"b"c"', ' "q"', '"open']
TIME_CELLS = ["1", "2", "+3", " 3 ", "-1", "3.0", "99999999999999999999", "x", "\x1c4", "1_0", '"2"',
              "\xa05", ""]
NUMBER_CELLS = ["1.5", " 40 ", "50", "-2", "1_000", "infinity", "1e400", "nan", "", "NA", " NA ", ".",
                "101", '"7"', "0x10", "\xa05", "9" * 40, "1e-5", "+.5", "5\x00", "NULL"]
GROUP_CELLS = ["fin", "", " ", "tech", "é", '"a,b"', "\x1ct", "公司", "g" * 60]


@st.composite
def panel_texts(draw):
    grouped = draw(st.booleans())
    columns = [UNIT_CELLS, TIME_CELLS, NUMBER_CELLS, NUMBER_CELLS] + [GROUP_CELLS] * grouped
    header = "unit_id,time,outcome,signal" + ",sector" * grouped
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [draw(st.sampled_from(["\ufeff"] + [""] * 9)) + header]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", ","])))
            continue
        # mostly the first three cells of each list, which parse, so that
        # the column parse often gets to decide
        cells = [draw(st.sampled_from(c if draw(st.integers(0, 9)) == 0 else c[:3]))
                 for c in columns]
        if kind == 1:
            cells.append(draw(st.sampled_from(["", "x"])))
        elif kind == 2:
            cells.pop()
        lines.append(",".join(cells))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), grouped


def _parsed(loader, path, schema):
    try:
        return loader(path, schema)
    except Exception as exc:  # the row parser may raise more than ConcateError
        return type(exc), str(exc)


@PROPERTY_SETTINGS
@given(panel_texts())
def test_column_parse_is_none_or_equals_the_row_parser(panel_text):
    text, grouped = panel_text
    schema = PanelSchema(group="sector" if grouped else None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        path.write_bytes(text.encode())
        columns = _parsed(_load_columns, path, schema)
        if columns is None:
            return
        rows = _parsed(_load_rows, path, schema)
    if isinstance(rows, tuple):
        assert columns == rows
        return
    assert isinstance(columns, PanelDataset), columns
    for name in ("unit", "time", "outcome", "signal", "group"):
        a, b = getattr(columns, name), getattr(rows, name)
        assert (a is None) == (b is None), name
        if b is not None:
            assert a.dtype == b.dtype, name
            assert [type(v) for v in a.tolist()] == [type(v) for v in b.tolist()], name
            assert a.tolist() == b.tolist(), name
    assert columns.n_dropped == rows.n_dropped
