import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from amplab import denoisers
from amplab.denoisers import (
    Denoiser,
    LocalKernelSpec,
    SpectralSpec,
    identity_denoiser,
    local_average_apply,
    local_average_denoiser,
    local_average_divergence,
    mc_divergence,
    residual_shift_denoiser,
    signal_residual_denoiser,
    soft_threshold_apply,
    soft_threshold_denoiser,
    soft_threshold_divergence,
    svt_apply,
    svt_denoiser,
    svt_divergence,
    zero_denoiser,
)
from amplab.exceptions import DimensionError, NumericError, ParameterError
from amplab.rng import RngStream
from amplab.vecmat import mat, vec


def test_soft_threshold_zero_lambda_is_identity():
    x = RngStream(1).generator().standard_normal(50)
    assert np.array_equal(soft_threshold_apply(x, 0.0), x)


def test_soft_threshold_forced_values():
    out = soft_threshold_apply(np.array([2.0, -0.5, 1.0]), 1.0)
    assert np.array_equal(out, np.array([1.0, 0.0, 0.0]))
    assert soft_threshold_divergence(np.array([2.0, -0.5, 1.0]), 1.0) == 1.0


def test_soft_threshold_negative_lambda_rejected():
    with pytest.raises(ParameterError):
        soft_threshold_apply(np.zeros(3), -0.1)


# each once built: a negative soft threshold counted every coordinate in its
# divergence, and a NaN one mapped every input to NaN
@pytest.mark.parametrize("build", [soft_threshold_denoiser, lambda t: SpectralSpec(3, 3, t),
                                   lambda t: soft_threshold_divergence(np.zeros(4), t)],
                         ids=["soft_threshold_denoiser", "SpectralSpec",
                              "soft_threshold_divergence"])
@pytest.mark.parametrize("threshold", [-0.5, np.nan])
def test_a_negative_or_nan_threshold_is_refused_up_front(build, threshold):
    with pytest.raises(ParameterError, match="threshold"):
        build(threshold)


def test_local_kernel_spec_rejects_a_non_integer_size():
    # h = 1.5 was accepted, and apply died with an IndexError
    with pytest.raises(ParameterError, match="h must be an integer"):
        LocalKernelSpec(3, 3, 1.5)
    with pytest.raises(DimensionError, match="M must be an integer"):
        LocalKernelSpec(3.0, 3, 1)
    assert LocalKernelSpec(np.int64(3), 3, np.int64(1)).h == 1


def test_soft_threshold_nonexpansive_on_probes():
    gen = RngStream(2).generator()
    for _ in range(100):
        x = gen.standard_normal(40)
        y = x + 0.3 * gen.standard_normal(40)
        dx = np.linalg.norm(soft_threshold_apply(x, 0.7) - soft_threshold_apply(y, 0.7))
        assert dx <= np.linalg.norm(x - y) + 1e-12


def test_soft_threshold_divergence_gaussian_tail():
    n, sigma = 100_000, 1.3
    x = sigma * RngStream(3).generator().standard_normal(n)
    frac = soft_threshold_divergence(x, sigma) / n
    expect = 2 * (1 - norm.cdf(1.0))
    assert abs(frac - expect) / expect < 0.01


def test_divergence_zero_lambda_counts_all():
    x = np.array([0.4, -2.0, 1.0])
    assert soft_threshold_divergence(x, 0.0) == 3.0


def test_local_average_h0_identity_and_constants():
    spec = LocalKernelSpec(5, 4, 0)
    img = RngStream(4).generator().standard_normal((5, 4))
    assert np.array_equal(local_average_apply(img, spec), img)
    spec1 = LocalKernelSpec(5, 4, 1)
    const = np.full((5, 4), 3.25)
    assert np.allclose(local_average_apply(const, spec1), const)


def _window_mean_oracle(img, h, j, jp):
    m, n = img.shape
    acc = []
    for k in range(max(0, j - h), min(m - 1, j + h) + 1):
        for kp in range(max(0, jp - h), min(n - 1, jp + h) + 1):
            acc.append(img[k, kp])
    return np.mean(acc)


def test_local_average_matches_window_oracle():
    img = np.arange(1, 10.0).reshape(3, 3)
    spec = LocalKernelSpec(3, 3, 1)
    out = local_average_apply(img, spec)
    assert out[1, 1] == pytest.approx(5.0)
    for j in range(3):
        for jp in range(3):
            assert out[j, jp] == pytest.approx(_window_mean_oracle(img, 1, j, jp))


def test_local_average_divergence_by_enumeration():
    spec = LocalKernelSpec(3, 3, 1)
    sizes = []
    for j in range(3):
        for jp in range(3):
            rows = min(2, j + 1) - max(0, j - 1) + 1
            cols = min(2, jp + 1) - max(0, jp - 1) + 1
            sizes.append(rows * cols)
    assert local_average_divergence(spec) == pytest.approx(sum(1.0 / s for s in sizes))
    assert local_average_divergence(spec) == pytest.approx(16.0 / 9.0)
    # interior-dominated image: close to n / 9
    big = LocalKernelSpec(50, 50, 1)
    assert abs(local_average_divergence(big) - 2500 / 9.0) / (2500 / 9.0) < 0.05
    assert local_average_divergence(LocalKernelSpec(4, 6, 0)) == 24.0


def test_local_average_dim_mismatch():
    with pytest.raises(DimensionError):
        local_average_apply(np.zeros((3, 3)), LocalKernelSpec(4, 4, 1))


def test_mat_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(DimensionError, match="length-5 vector to 2x3"):
        mat(np.ones(5), 2, 3)


@pytest.mark.parametrize("den", [svt_denoiser(SpectralSpec(3, 4, 0.5)),
                                 local_average_denoiser(LocalKernelSpec(3, 4, 1))],
                         ids=["svt", "local_average"])
def test_matrix_denoisers_reject_a_vector_of_the_wrong_length(den):
    with pytest.raises(DimensionError, match="length-11 vector to 3x4"):
        den.apply(np.ones(11))


@pytest.mark.parametrize("call", ["apply", "divergence", "divergence_mc"])
@pytest.mark.parametrize("shape", [(12, 2), (12, 1), ()])
def test_denoiser_rejects_input_that_is_not_a_vector(call, shape):
    # an n x t stack of iterates must fail loudly, not be read by its last column
    den = soft_threshold_denoiser(0.5)
    with pytest.raises(DimensionError, match="must be an n-vector"):
        getattr(den, call)(np.ones(shape))


def test_svt_zero_threshold_reconstructs():
    x = RngStream(5).generator().standard_normal((6, 9))
    out = svt_apply(x, SpectralSpec(6, 9, 0.0))
    assert np.linalg.norm(out - x) / np.linalg.norm(x) < 1e-8
    # and applying twice changes nothing further
    again = svt_apply(out, SpectralSpec(6, 9, 0.0))
    assert np.linalg.norm(again - out) / np.linalg.norm(out) < 1e-8


def test_svt_rank_one():
    u = np.array([3.0, 4.0]) / 5.0
    v = np.array([1.0, 0.0, 0.0])
    sigma, lam = 4.0, 0.5
    x = sigma * np.outer(u, v)
    out = svt_apply(x, SpectralSpec(2, 3, lam))
    assert np.allclose(out, (sigma - lam * np.sqrt(3)) * np.outer(u, v), atol=1e-12)


def test_svt_nonexpansive_on_probes():
    gen = RngStream(6).generator()
    spec = SpectralSpec(5, 7, 0.2)
    for _ in range(100):
        x = gen.standard_normal((5, 7))
        y = x + 0.5 * gen.standard_normal((5, 7))
        d = np.linalg.norm(svt_apply(x, spec) - svt_apply(y, spec))
        assert d <= np.linalg.norm(x - y) + 1e-10


@pytest.mark.parametrize("probe", [
    lambda: mc_divergence(lambda v: v, np.zeros(0), reps=3),
    lambda: identity_denoiser().divergence_mc(np.zeros(0), reps=3),
], ids=["mc_divergence", "divergence_mc"])
def test_mc_divergence_rejects_an_empty_vector(probe):
    # it once divided 0 by 0 and then raised a bare ZeroDivisionError
    with pytest.raises(DimensionError, match="non-empty"):
        probe()


_SVT = SpectralSpec(3, 4, 0.5)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("call, what", [
    (lambda x: svt_apply(mat(x, 3, 4), _SVT), "SVT input x"),
    (lambda x: svt_denoiser(_SVT).fn(np.stack([np.ones(12), x])), "SVT input x"),
    (lambda x: svt_denoiser(_SVT).divergence(x), r"SVT input mat\(x\) \+ shift"),
], ids=["svt_apply", "fn-stack", "divergence"])
def test_svt_rejects_non_finite_input(call, what, bad):
    # inf once gave divergence 0.0 and an all-NaN apply, NaN a raw LinAlgError
    x = np.ones(12)
    x[5] = bad
    with pytest.raises(NumericError, match=f"{what} has 1 non-finite entries"):
        call(x)


def test_residual_shift_declares_its_offset():
    # the SE solvers read the offset in place of fn, so the two must agree
    e = RngStream(40).generator().standard_normal(7)
    den = residual_shift_denoiser(e)
    z = RngStream(41).generator().standard_normal((3, 7))
    assert np.array_equal(den.offset, e)
    assert np.array_equal(den.fn(z), z + den.offset)
    assert np.array_equal(den.apply(z[0]), z[0] + den.offset)
    assert all(d.offset is None for d in (identity_denoiser(), zero_denoiser(),
                                          soft_threshold_denoiser(0.5)))


def test_signal_residual_declares_a_soft_threshold_residual():
    # the SE solvers read (theta_star, lmbda) in place of fn, so the two must
    # agree; a residual of any other eta declares nothing
    theta = RngStream(42).generator().standard_normal(7)
    eta = soft_threshold_denoiser(0.4)
    den = signal_residual_denoiser(theta, eta)
    z = RngStream(43).generator().standard_normal((3, 7))
    assert eta.threshold == 0.4
    assert np.array_equal(den.residual[0], theta) and den.residual[1] == 0.4
    assert np.array_equal(den.fn(z), theta - soft_threshold_apply(z + theta, 0.4))
    assert signal_residual_denoiser(theta, identity_denoiser()).residual is None
    assert all(d.threshold is None and d.residual is None
               for d in (identity_denoiser(), zero_denoiser(), residual_shift_denoiser(theta)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        eta.threshold = 0.1


@pytest.mark.parametrize("theta", [np.ones((3, 3)), np.zeros(0), np.float64(1.0)],
                         ids=["matrix", "empty", "scalar"])
def test_signal_residual_refuses_a_theta_star_that_is_no_vector(theta):
    # a (3, 3) theta_star was accepted and broadcast against the iterate
    with pytest.raises(DimensionError, match="theta_star"):
        signal_residual_denoiser(theta, soft_threshold_denoiser(0.5))


def test_mc_divergence_identity_and_scaled():
    n = 400
    x = RngStream(7).generator().standard_normal(n)
    mean, se = mc_divergence(lambda v: v, x, reps=200, rng=RngStream(8))
    assert abs(mean - n) < 3 * se
    mean, se = mc_divergence(lambda v: 0.5 * v, x, reps=200, rng=RngStream(9))
    assert abs(mean - n / 2) < 3 * se


def test_svt_divergence_mc_identity_threshold_zero():
    x = RngStream(10).generator().standard_normal((8, 8))
    spec = SpectralSpec(8, 8, 0.0)
    mean, se = mc_divergence(
        lambda v: vec(svt_apply(mat(v, 8, 8), spec)), vec(x), reps=300, rng=RngStream(11)
    )
    assert abs(mean - 64) < 3 * se


def _matrix_with_singular_values(M, N, sv, seed):
    gen = RngStream(seed).generator()
    o = np.linalg.qr(gen.standard_normal((M, M)))[0][:, : len(sv)]
    u = np.linalg.qr(gen.standard_normal((N, N)))[0][:, : len(sv)]
    return (o * np.asarray(sv, dtype=np.float64)) @ u.T


# (M, N, threshold, singular values) with none within 0.1 of the level
# threshold * sqrt(N), where the SVT map has a kink
SVT_CASES = {
    "wide": (6, 9, 0.5, [4.0, 3.1, 2.2, 1.2, 0.6, 0.3]),
    "tall": (9, 6, 0.5, [4.0, 3.1, 2.2, 1.0, 0.6, 0.3]),
    "rank_deficient": (7, 5, 0.4, [3.0, 1.5, 0.2]),
    "tied": (6, 6, 0.3, [2.5, 2.5, 2.5, 0.4, 0.4, 0.4]),
    "all_above_tied": (5, 8, 0.2, [1.9, 1.9, 1.9, 1.9, 1.9]),
}


@pytest.mark.parametrize("case", sorted(SVT_CASES))
def test_svt_divergence_matches_the_probe(case):
    M, N, threshold, sv = SVT_CASES[case]
    spec = SpectralSpec(M, N, threshold)
    x = vec(_matrix_with_singular_values(M, N, sv, seed=len(case)))
    exact = svt_divergence(x, spec)
    mean, se = mc_divergence(svt_denoiser(spec).fn, x, reps=2000, rng=RngStream(26))
    assert abs(exact - mean) < 3 * se
    assert svt_denoiser(spec).divergence(x) == exact


def test_svt_divergence_is_taken_at_the_shifted_matrix():
    M, N = 6, 4
    target = _matrix_with_singular_values(M, N, [3.0, 2.0, 0.8, 0.1], seed=27)
    shift = RngStream(28).generator().standard_normal((M, N))
    spec = SpectralSpec(M, N, 0.5, shift=shift)
    x = vec(target - shift)
    exact = svt_divergence(x, spec)
    assert exact == pytest.approx(svt_divergence(vec(target), SpectralSpec(M, N, 0.5)),
                                  rel=1e-9)
    assert exact != pytest.approx(svt_divergence(x, SpectralSpec(M, N, 0.5)), rel=1e-3)
    mean, se = mc_divergence(svt_denoiser(spec).fn, x, reps=2000, rng=RngStream(29))
    assert abs(exact - mean) < 3 * se


@pytest.mark.parametrize("M, N, sv", [
    (6, 9, [4.0, 3.0, 2.0, 1.0, 0.5, 0.1]),
    (9, 6, [4.0, 3.0, 2.0, 1.0, 0.5, 0.1]),
    (7, 5, [3.0, 1.5]),
    (5, 5, [1.0] * 5),
    (4, 3, []),
])
def test_svt_divergence_at_threshold_zero_is_exactly_MN(M, N, sv):
    x = vec(_matrix_with_singular_values(M, N, sv, seed=30))
    assert svt_divergence(x, SpectralSpec(M, N, 0.0)) == M * N


def test_spectral_spec_rejects_a_mismatched_shift():
    with pytest.raises(DimensionError):
        SpectralSpec(5, 4, 0.5, shift=np.ones(4))
    with pytest.raises(DimensionError):
        SpectralSpec(5, 4, 0.5, shift=np.ones((4, 5)))
    assert SpectralSpec(5, 4, 0.5, shift=np.ones((5, 4))).shift.shape == (5, 4)


def test_shifted_spectral_spec_hashes_and_goes_into_a_set():
    shift = np.ones((2, 2))
    a, b = SpectralSpec(2, 2, 0.5, shift=shift), SpectralSpec(2, 2, 0.5, shift=shift)
    assert a == a and a != b  # identity, not field-wise array comparison
    assert len({a, b, a}) == 2
    assert {a: 1}[a] == 1


def test_mc_divergence_matches_analytic_count_for_soft_threshold():
    n = 2000
    x = RngStream(12).generator().standard_normal(n)
    lam = 0.6
    est, _ = mc_divergence(lambda v: soft_threshold_apply(v, lam), x,
                           reps=200, rng=RngStream(13))
    exact = soft_threshold_divergence(x, lam)
    assert abs(est - exact) / exact < 0.02


def _operator_norm(den, n):
    """Spectral norm of a linear denoiser, from its matrix on the basis."""
    return np.linalg.norm(np.column_stack([den.apply(col) for col in np.eye(n)]), 2)


def test_denoiser_lipschitz_probe_all_families():
    gen = RngStream(18).generator()
    n = 36
    e, theta = gen.standard_normal(n), gen.standard_normal(n)
    eta = soft_threshold_denoiser(0.5)
    smoother = local_average_denoiser(LocalKernelSpec(6, 6, 1))
    # (denoiser, Lipschitz constant, value at zero)
    cases = [
        (soft_threshold_denoiser(0.5), 1.0, np.zeros(n)),
        (identity_denoiser(), 1.0, np.zeros(n)),
        (zero_denoiser(), 0.0, np.zeros(n)),
        (smoother, _operator_norm(smoother, n), np.zeros(n)),
        (svt_denoiser(SpectralSpec(6, 6, 0.1)), 1.0, np.zeros(n)),
        (residual_shift_denoiser(e), 1.0, e),
        (signal_residual_denoiser(theta, eta), 1.0, theta - eta.apply(theta)),
    ]
    for den, lip, at_zero in cases:
        for _ in range(100):
            x = gen.standard_normal(n)
            y = x + 0.4 * gen.standard_normal(n)
            dist = np.linalg.norm(den.apply(x) - den.apply(y))
            assert dist <= (lip + 1e-6) * np.linalg.norm(x - y), den.name
        assert np.allclose(den.apply(np.zeros(n)), at_zero, rtol=0, atol=1e-12), den.name


def test_stein_identity_for_analytic_divergences():
    # E[Z^T f(Z)] / sigma^2 should equal E[div f] for Gaussian input
    n = 900
    sigma = 0.8
    gen = RngStream(21).generator()
    dens = [
        soft_threshold_denoiser(0.5),
        local_average_denoiser(LocalKernelSpec(30, 30, 1)),
    ]
    for den in dens:
        diffs = []
        for _ in range(300):
            z = sigma * gen.standard_normal(n)
            diffs.append(z @ den.apply(z) / sigma**2 - den.divergence(z))
        diffs = np.asarray(diffs) / n
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) < 3 * se, den.name


def test_stability_probe():
    gen = RngStream(22).generator()
    n = 64
    smoother = local_average_denoiser(LocalKernelSpec(8, 8, 1))
    cases = [
        (soft_threshold_denoiser(0.5), 1.0),
        (smoother, _operator_norm(smoother, n)),
        (svt_denoiser(SpectralSpec(8, 8, 0.1)), 1.0),
    ]
    for den, lip in cases:
        for _ in range(20):
            z = gen.standard_normal(n)
            e = gen.standard_normal(n)
            e *= gen.uniform(0, 5) / np.linalg.norm(e)
            fz = den.apply(z)
            fze = den.apply(z + e)
            lhs = abs(fze @ fze - fz @ fz) / n
            bound = 10 * lip**2 * (np.linalg.norm(e) / np.sqrt(n)) * (
                1 + np.linalg.norm(z) / np.sqrt(n))
            assert lhs <= bound, den.name


def test_soft_threshold_expected_square_against_quadrature():
    # second moment of the thresholded Gaussian from direct quadrature
    lam, sigma = 0.7, 1.0
    expect, _ = quad(
        lambda z: (max(abs(z) - lam, 0.0)) ** 2 * norm.pdf(z, scale=sigma), -12, 12
    )
    n = 200_000
    z = sigma * RngStream(25).generator().standard_normal(n)
    emp = np.mean(soft_threshold_apply(z, lam) ** 2)
    assert abs(emp - expect) < 4 * emp / np.sqrt(n) + 1e-4


def _stack_cases():
    """name -> (denoiser, (k, n) stack of inputs)."""
    gen = RngStream(40).generator()
    lam = 0.5
    edges = np.array([lam, -lam, 0.0, -0.0, np.inf, -np.inf, np.nan, np.nextafter(lam, 1.0)])
    soft = np.vstack([np.resize(edges, 12), gen.standard_normal((3, 12))])
    theta, e = gen.standard_normal(20), gen.standard_normal(20)
    shift = gen.standard_normal((5, 6))
    return {
        "soft_threshold": (soft_threshold_denoiser(lam), soft),
        "local_average_h0": (local_average_denoiser(LocalKernelSpec(3, 5, 0)),
                             gen.standard_normal((4, 15))),
        "local_average_h2": (local_average_denoiser(LocalKernelSpec(4, 6, 2)),
                             gen.standard_normal((4, 24))),
        "svt_wide": (svt_denoiser(SpectralSpec(4, 7, 0.3)), gen.standard_normal((4, 28))),
        "svt_tall": (svt_denoiser(SpectralSpec(7, 4, 0.3)), gen.standard_normal((4, 28))),
        "svt_shift": (svt_denoiser(SpectralSpec(5, 6, 0.2, shift=shift)),
                      gen.standard_normal((4, 30))),
        "svt_threshold_zero": (svt_denoiser(SpectralSpec(5, 5, 0.0)),
                               gen.standard_normal((4, 25))),
        "identity": (identity_denoiser(), gen.standard_normal((4, 20))),
        "zero": (zero_denoiser(), gen.standard_normal((4, 20))),
        "residual_shift": (residual_shift_denoiser(e), gen.standard_normal((4, 20))),
        "signal_residual": (signal_residual_denoiser(theta, soft_threshold_denoiser(lam)),
                            gen.standard_normal((4, 20))),
    }


@pytest.mark.parametrize("case", sorted(_stack_cases()))
def test_fn_maps_a_stack_of_rows_as_apply_maps_each_row(case):
    den, stack = _stack_cases()[case]
    rows = np.stack([den.apply(row) for row in stack])
    assert np.array_equal(den.fn(stack), rows, equal_nan=True)
    # leading axes beyond one are carried along
    k, n = stack.shape
    out = den.fn(stack.reshape(2, k // 2, n))
    assert np.array_equal(out, rows.reshape(2, k // 2, n), equal_nan=True)


@pytest.mark.parametrize("block_rows", [None, 1, 4])
@pytest.mark.parametrize("case", ["soft_threshold", "svt_shift"])
def test_blocked_mc_divergence_equals_a_probe_by_probe_loop(monkeypatch, case, block_rows):
    den, stack = _stack_cases()[case]
    x = np.nan_to_num(stack[-1], posinf=3.0, neginf=-3.0)
    reps = 11  # not a multiple of 4 or of the default block: the last block is partial
    if block_rows is not None:
        monkeypatch.setattr(denoisers, "_block_rows", lambda row_bytes: block_rows)
    eps = 1e-4 * max(1.0, float(np.linalg.norm(x)) / np.sqrt(x.size))
    gen = RngStream(3).generator()
    fx = den.apply(x)
    samples = []
    for _ in range(reps):
        xi = gen.standard_normal(x.size)
        samples.append(xi @ (den.apply(x + eps * xi) - fx) / eps)
    want = (float(np.mean(samples)), float(np.std(samples, ddof=1) / np.sqrt(reps)))
    assert mc_divergence(den.fn, x, reps=reps, rng=RngStream(3)) == want
