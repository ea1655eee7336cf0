"""Property tests: the arm split, the closed-form mean bound, all seven
band methods and the block-derived replication seeds against eager
reference computations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concate.bands import METHODS, BandOptions, compute_band
from concate.concentration import _mean_bounds
from concate.errors import ConcateError
from concate.estimators import GroupStats, split_arms
from concate.montecarlo import MAX_REPS, MC_DESIGNS, DgpSpec, _replication_seeds, replication_seed

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def _eager_arm(values):
    if values.size == 0:
        return math.nan, math.nan, math.nan, math.nan
    var = float(values.var(ddof=1)) if values.size >= 2 else math.nan
    return float(values.mean()), var, float(values.min()), float(values.max())


def eager_split(y, z):
    """The split as first written: boolean indexing and both arms sorted up front."""
    y1, y0 = y[z], y[~z]
    n1, n0 = y1.size, y0.size
    mean1, var1, min1, max1 = _eager_arm(y1)
    mean0, var0, min0, max0 = _eager_arm(y0)
    stats = GroupStats(
        n_treated=n1, n_control=n0,
        mean_treated=mean1, mean_control=mean0,
        var_treated=var1, var_control=var0,
        share_treated=n1 / (n1 + n0), share_control=n0 / (n1 + n0),
        min_treated=min1, max_treated=max1, min_control=min0, max_control=max0,
        treated_serial=y1, control_serial=y0,
    )
    vars(stats).update(_treated_sorted=np.sort(y1), _control_sorted=np.sort(y0))
    return stats


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
    for name in ("treated_serial", "control_serial", "treated_sorted", "control_sorted"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    for name in (
        "n_treated", "n_control", "mean_treated", "mean_control", "var_treated",
        "var_control", "share_treated", "share_control", "min_treated", "max_treated",
        "min_control", "max_control",
    ):
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
    # an infinite mean makes one extremum's difference NaN, and so every |y - mean| pass
    y = np.array(arm + [0.0, 2.0])
    with np.errstate(invalid="ignore", over="ignore"):
        stats = split_arms(y, np.arange(y.size) < len(arm))
        want = float(np.max(np.abs(stats.treated_serial - stats.mean_treated)))
    m1, _ = _mean_bounds(stats, BandOptions())
    assert repr(m1) == repr(want)


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
def test_block_states_equal_seed_sequence_row_for_row(
    base_seed, design, n_units, periods, first, rows, attempt
):
    # entropy of 1 to 7 words (more than the pool's 4 changes the mixing
    # loop); n_units and periods past 2**32 take two words of the spawn key
    spec = DgpSpec(design=design, n_units=n_units, periods=periods)
    reps = np.arange(first, first + rows, dtype=np.uint32)
    states = _replication_seeds(base_seed, spec).states(reps, attempt)
    assert states.shape == (rows, 4) and states.dtype == np.uint64
    for row in range(rows):
        seq = replication_seed(base_seed, design, n_units, periods, first + row, attempt)
        assert np.array_equal(states[row], seq.generate_state(4, np.uint64))
