import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpmor import ParameterError, kernels
from gpmor.interpolation import lagrange_weights


def make_case(rng, n_nodes=4, n=10, p=2, m=37):
    lifts = rng.standard_normal((n_nodes, n, p))
    params = np.sort(rng.uniform(0.0, 10.0, size=n_nodes))
    grid = np.linspace(-1.0, 11.0, m)
    return lifts, params, grid


def reference_thetas(lifts, params, grid):
    out = []
    for lam in grid:
        w = lagrange_weights(params, lam)
        z = sum(wi * zi for wi, zi in zip(w, lifts))
        out.append(np.linalg.svd(z, compute_uv=False)[0])
    return np.array(out)


def assert_matches_reference(lifts, params, grid):
    """|dtheta| <= 1e-12 * max(1, sum_i |w_i(lam)| * ||Z_i||_2) at every grid point."""
    got = kernels.theta_curve(lifts, params, grid)
    want = reference_thetas(lifts, params, grid)
    norms = np.array([np.linalg.norm(z, 2) for z in lifts])
    scale = np.array([np.abs(lagrange_weights(params, lam)) @ norms for lam in grid])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, scale))


def test_numpy_kernel_matches_direct_evaluation():
    rng = np.random.default_rng(0)
    assert_matches_reference(*make_case(rng, n_nodes=4, n=200, p=3))  # tall: n >> Np
    assert_matches_reference(*make_case(rng, n_nodes=5, n=7, p=3))  # wide: n < Np


def test_dispatcher_consistent_with_active_backend():
    rng = np.random.default_rng(2)
    assert_matches_reference(*make_case(rng))
    assert kernels.active_backend() == "numpy"


def test_single_grid_point_and_single_node():
    lifts = np.ones((1, 4, 1))
    params = np.array([2.0])
    grid = np.array([7.0])
    got = kernels.theta_curve(lifts, params, grid)
    assert got[0] == pytest.approx(2.0, abs=1e-14)  # svd of the all-ones 4x1 column


def test_single_node_is_constant():
    rng = np.random.default_rng(3)
    lifts, params, grid = make_case(rng, n_nodes=1, n=30, p=4)
    assert_matches_reference(lifts, params, grid)
    got = kernels.theta_curve(lifts, params, grid)
    assert np.ptp(got) <= 1e-13 * got[0]


def test_single_grid_point_many_nodes():
    rng = np.random.default_rng(4)
    lifts, params, _ = make_case(rng, n_nodes=6, n=40, p=3)
    assert_matches_reference(lifts, params, np.array([4.2]))


def test_far_extrapolation_with_large_lebesgue_constant():
    rng = np.random.default_rng(5)
    lifts, params, _ = make_case(rng, n_nodes=8, n=50, p=3)
    grid = np.linspace(-60.0, 70.0, 41)
    assert max(np.abs(lagrange_weights(params, lam)).sum() for lam in grid) > 1e6
    assert_matches_reference(lifts, params, grid)


def test_zero_at_exact_node_of_a_zero_lift():
    rng = np.random.default_rng(6)
    lifts, params, _ = make_case(rng, n_nodes=4, n=25, p=2)
    lifts[2] = 0.0
    assert kernels.theta_curve(lifts, params, params[2:3])[0] == 0.0


def test_peak_allocation_independent_of_grid_times_n():
    # the M x n x p combined lifts alone would be 2001 * 20000 * 10 doubles = 3.2 GB
    rng = np.random.default_rng(7)
    lifts, params, _ = make_case(rng, n_nodes=5, n=20000, p=10)
    grid = np.linspace(-1.0, 11.0, 2001)
    tracemalloc.start()
    try:
        kernels.theta_curve(lifts, params, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_grid_loop_peak_does_not_grow_with_the_block():
    # the whole grid's combined 20 x 4 matrices would be 50001 * 640 B = 32 MB;
    # beside the 2 MB of weights, the loop holds one block of them at a time
    rng = np.random.default_rng(8)
    lifts, params, _ = make_case(rng, n_nodes=5, n=50, p=4)
    grid = np.linspace(-1.0, 11.0, 50001)
    tracemalloc.start()
    try:
        kernels.theta_curve(lifts, params, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("lift_scale, targets", [
    (1.0, [-1e19, -1e25, 1e30]),  # weights up to 1e242: C^T C would overflow
    (1e-170, [0.3, 4.0, 12.0]),  # tiny lifts: C^T C would underflow to 0
    (1e150, [0.3, 4.0, 12.0]),
])
def test_extreme_magnitudes_keep_relative_accuracy(lift_scale, targets):
    rng = np.random.default_rng(9)
    lifts, params, _ = make_case(rng, n_nodes=9, n=50, p=3)
    lifts *= lift_scale
    got = kernels.theta_curve(lifts, params, np.array(targets))
    want = reference_thetas(lifts, params, targets)
    np.testing.assert_allclose(got, want, rtol=1e-12)


@st.composite
def kernel_cases(draw):
    """Lifts of N nodes with n above or below Np, random or affine in the
    parameter (so that far out the weights cancel), a grid that may reach far
    enough out for a Lebesgue constant past 1e6, and maybe a zero lift whose
    node is on the grid."""
    n_nodes = draw(st.integers(1, 12))
    p = draw(st.integers(1, 10))
    wide = draw(st.booleans())
    n = draw(st.integers(1, n_nodes * p)) if wide else draw(st.integers(n_nodes * p + 1, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = np.sort(rng.choice(np.arange(0.0, 10.0, 0.25), size=n_nodes, replace=False))
    if draw(st.booleans()):
        lifts = rng.standard_normal((n_nodes, n, p))
    else:
        a, b = rng.standard_normal((2, n, p))
        lifts = a + params[:, None, None] * b
    lifts *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    reach = draw(st.sampled_from([0.0, 5.0, 60.0]))
    grid = np.linspace(-reach, 10.0 + reach, draw(st.integers(1, 25)))
    zero = draw(st.none() | st.integers(0, n_nodes - 1))
    if zero is not None:
        lifts[zero] = 0.0
        grid = np.append(grid, params[zero])
    return lifts, params, grid, zero


@given(kernel_cases())
@example((np.random.default_rng(5).standard_normal((8, 50, 3)), np.arange(8.0),
          np.linspace(-60.0, 70.0, 9), None))  # Lebesgue constant past 1e6
@settings(max_examples=150)
def test_theta_curve_matches_direct_evaluation(case):
    lifts, params, grid, zero = case
    assert_matches_reference(lifts, params, grid)
    if zero is not None:
        assert kernels.theta_curve(lifts, params, params[zero : zero + 1])[0] == 0.0


@given(kernel_cases())
@settings(max_examples=60)
def test_one_target_has_the_bits_it_has_inside_a_longer_grid(case):
    # a lone sample and a block of many take the same per-sample product, so
    # interpolate's one target and a sweep's sample at that lambda agree
    lifts, params, grid, _ = case
    whole = kernels.theta_curve(lifts, params, grid)
    for lam, theta in zip(grid, whole):
        assert kernels.theta_curve(lifts, params, np.array([lam]))[0] == theta


def test_one_target_has_the_bits_it_has_in_either_block_of_a_long_grid():
    # 50 x 3 combined matrices: 873 samples fill the 1 MB block, so 2001
    # samples take three blocks
    rng = np.random.default_rng(10)
    lifts, params, _ = make_case(rng, n_nodes=8, n=50, p=3)
    grid = np.linspace(-1.0, 11.0, 2001)
    whole = kernels.theta_curve(lifts, params, grid)
    for j in (*range(0, 2001, 97), 872, 873, 1745, 1746, 2000):
        assert kernels.theta_curve(lifts, params, grid[j:j + 1])[0] == whole[j]


def test_combine_of_a_one_hot_row_is_that_lift():
    # node reproduction stays exact through the product
    lifts = np.random.default_rng(11).standard_normal((5, 9, 3))
    for i, row in enumerate(np.eye(5)):
        assert np.array_equal(kernels.combine(lifts, [row])[0], lifts[i])


@pytest.mark.parametrize("rows", [2, 7, 40])
def test_combine_row_has_the_bits_of_a_one_row_call(rows):
    rng = np.random.default_rng(rows)
    lifts = rng.standard_normal((6, 11, 4))
    weights = rng.standard_normal((rows, 6)) * 10.0 ** rng.integers(-3, 4, (rows, 1))
    whole = kernels.combine(lifts, weights)
    assert whole.shape == (rows, 11, 4)
    for row, combined in zip(weights, whole):
        assert np.array_equal(kernels.combine(lifts, row[np.newaxis]), combined[np.newaxis])


@pytest.mark.parametrize("call", [
    lambda: kernels.lagrange_matrix([1.0, 1.0, 2.0], [0.5]),
    lambda: kernels.theta_curve(np.ones((3, 4, 1)), [1.0, 2.0, 1.0], [0.5]),
    lambda: lagrange_weights([0.0, 1.0, 0.0], 0.5),
], ids=["lagrange_matrix", "theta_curve", "lagrange_weights"])
def test_repeated_nodes_are_named(call):
    # repeated nodes divide by zero: the one distinct-node rule names them
    # instead of blaming the target for non-finite weights
    with pytest.raises(ParameterError, match="^interpolation nodes must be pairwise distinct$"):
        call()
