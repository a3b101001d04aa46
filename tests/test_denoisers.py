import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from amplab.denoisers import (
    AnisoSpec,
    LocalKernelSpec,
    SpectralSpec,
    aniso_apply,
    aniso_denoiser,
    identity_denoiser,
    identity_plus_soft_threshold_denoiser,
    lipschitz_monotone_approx,
    local_average_apply,
    local_average_denoiser,
    local_average_divergence,
    marchenko_pastur_sqrt_quantiles,
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
from amplab.ensembles import sample_haar_orthogonal
from amplab.exceptions import DimensionError, ParameterError
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
    assert svt_denoiser(spec).divergence(np.column_stack([x, x])).tolist() == [0.0, exact]


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


@pytest.mark.parametrize("formula, reps, source, probes", [
    (True, None, "analytic", None),
    (True, 7, "monte_carlo", 7),  # forced probe
    (False, None, "monte_carlo", 100),  # no formula: the probe's default count
    (False, 3, "monte_carlo", 3),
])
def test_onsager_takes_the_formula_unless_reps_is_given(formula, reps, source, probes):
    n = 20
    z = RngStream(40).generator().standard_normal((n, 2))
    den = soft_threshold_denoiser(0.4) if formula else aniso_denoiser(
        AnisoSpec(K=np.eye(n), Kprime=np.eye(n), inner=lambda y: np.tanh(y[:, -1])))
    divs, got = den.onsager(z, reps=reps, rng=RngStream(41))
    assert got == source
    want = (den.divergence(z) if probes is None
            else den.divergence_mc(z, reps=probes, rng=RngStream(41)))
    assert np.array_equal(divs, want)


def test_mc_divergence_matches_analytic_count_for_soft_threshold():
    n = 2000
    x = RngStream(12).generator().standard_normal(n)
    lam = 0.6
    eps = 1e-4 * np.linalg.norm(x) / np.sqrt(n)
    est, _ = mc_divergence(lambda v: soft_threshold_apply(v, lam), x,
                           eps=eps, reps=200, rng=RngStream(13))
    exact = soft_threshold_divergence(x, lam)
    assert abs(est - exact) / exact < 0.02


def test_aniso_identity_collapse():
    n = 30
    z = RngStream(14).generator().standard_normal((n, 2))
    spec = AnisoSpec(np.eye(n), np.eye(n), inner=lambda zz: zz[:, -1])
    assert np.allclose(aniso_apply(z, spec), z[:, -1])
    spec2 = AnisoSpec(np.eye(n), np.eye(n),
                      inner=lambda zz: soft_threshold_apply(zz[:, -1], 0.4))
    assert np.array_equal(aniso_apply(z, spec2), soft_threshold_apply(z[:, -1], 0.4))


def test_aniso_orthogonal_matches_matmul_oracle():
    n = 25
    k = sample_haar_orthogonal(n, RngStream(15))
    kp = sample_haar_orthogonal(n, RngStream(16))
    z = RngStream(17).generator().standard_normal(n)
    spec = AnisoSpec(k, kp, inner=lambda zz: zz[:, -1])
    out = aniso_apply(z, spec)
    oracle = kp @ (k.T @ z)
    assert np.abs(out - oracle).max() < 1e-10


def test_denoiser_lipschitz_probe_all_families():
    gen = RngStream(18).generator()
    n = 36
    dens = [
        soft_threshold_denoiser(0.5),
        identity_denoiser(),
        zero_denoiser(n),
        identity_plus_soft_threshold_denoiser(0.3),
        local_average_denoiser(LocalKernelSpec(6, 6, 1)),
        svt_denoiser(SpectralSpec(6, 6, 0.1)),
        aniso_denoiser(AnisoSpec(sample_haar_orthogonal(n, RngStream(19)),
                                 sample_haar_orthogonal(n, RngStream(20)),
                                 inner=lambda zz: soft_threshold_apply(zz[:, -1], 0.2))),
        residual_shift_denoiser(gen.standard_normal(n)),
        signal_residual_denoiser(gen.standard_normal(n), soft_threshold_denoiser(0.5)),
    ]
    for den in dens:
        lip = den.lipschitz_bound
        for _ in range(100):
            x = gen.standard_normal((n, 2))
            y = x + 0.4 * gen.standard_normal((n, 2))
            dist = np.linalg.norm(den.apply(x) - den.apply(y))
            assert dist <= (lip + 1e-6) * np.linalg.norm(x - y), den.name
        # value at zero stays within the declared envelope
        assert np.linalg.norm(den.apply(np.zeros((n, 2)))) <= lip * np.sqrt(n) + 1e-9


def test_stein_identity_for_analytic_divergences():
    # E[Z^T f(Z)] / sigma^2 should equal E[div f] for Gaussian input
    n = 900
    sigma = 0.8
    gen = RngStream(21).generator()
    dens = [
        soft_threshold_denoiser(0.5),
        local_average_denoiser(LocalKernelSpec(30, 30, 1)),
        identity_plus_soft_threshold_denoiser(0.4),
    ]
    for den in dens:
        diffs = []
        for _ in range(300):
            z = sigma * gen.standard_normal(n)
            diffs.append(z @ den.apply(z) / sigma**2 - den.divergence(z)[-1])
        diffs = np.asarray(diffs) / n
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) < 3 * se, den.name


def test_stability_probe():
    gen = RngStream(22).generator()
    n = 64
    dens = [
        soft_threshold_denoiser(0.5),
        local_average_denoiser(LocalKernelSpec(8, 8, 1)),
        svt_denoiser(SpectralSpec(8, 8, 0.1)),
    ]
    for den in dens:
        lip = den.lipschitz_bound
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


def test_monotone_interpolant_zero_targets():
    g = lipschitz_monotone_approx(np.linspace(0, 1, 6), np.zeros(5), 0.1)
    assert np.array_equal(g.values, np.zeros(6))
    assert g(0.37) == 0.0


def test_monotone_interpolant_single_knot_exact():
    g = lipschitz_monotone_approx([0.0, 1.0], [0.2], iota=0.01)
    assert g.values[1] == 0.2
    assert g(1.0) == pytest.approx(0.2)


def test_monotone_interpolant_structural_constraints():
    gen = RngStream(23).generator()
    for trial in range(30):
        m = int(gen.integers(5, 200))
        aspect = float(gen.uniform(0.3, 1.0))
        lo, grid = marchenko_pastur_sqrt_quantiles(m, aspect)
        s = np.concatenate([[lo], grid])
        if np.any(np.diff(s) <= 0):
            s = np.unique(s)
        d = np.sort(gen.uniform(0, 2.0, size=s.size - 1))
        iota = float(gen.uniform(0.01, 1.0))
        g = lipschitz_monotone_approx(s, d, iota)
        assert np.all(np.diff(g.values) >= 0)
        slopes = np.diff(g.values) / np.diff(g.knots)
        assert np.all(slopes <= (1.0 / iota) * (1 + 1e-12))
        assert np.all(g.values[1:] <= d)


def test_monotone_interpolant_error_decreases_with_slope_budget():
    m = 500
    lo, grid = marchenko_pastur_sqrt_quantiles(m, 0.6)
    s = np.concatenate([[lo], grid])
    # a jump in the targets keeps every finite slope budget binding
    step = np.where(np.arange(m) < m // 2, 0.0, 2.0)
    d = np.sort(step + RngStream(24).generator().uniform(0, 0.05, size=m))
    errs = []
    for iota in (1.0, 0.1, 0.01):
        g = lipschitz_monotone_approx(s, d, iota)
        errs.append(np.mean((g.values[1:] - d) ** 2))
    assert errs[0] > errs[1] > errs[2]


def test_monotone_interpolant_rejects_bad_input():
    with pytest.raises(ParameterError):
        lipschitz_monotone_approx([0.0, 1.0, 0.5], [0.1, 0.2], 0.1)
    with pytest.raises(ParameterError):
        lipschitz_monotone_approx([0.0, 1.0], [0.3], -1.0)
    with pytest.raises(ParameterError):
        lipschitz_monotone_approx([0.0, 0.5, 1.0], [0.5, 0.2], 0.1)


def test_marchenko_pastur_density_normalizes():
    for aspect in (0.3, 0.6, 1.0):
        lo, q = marchenko_pastur_sqrt_quantiles(200, aspect)
        assert np.all(np.diff(q) > 0)
        assert q[-1] == pytest.approx(1 + np.sqrt(aspect), abs=1e-6)
        # median quantile sits strictly inside the support
        assert lo < q[99] < 1 + np.sqrt(aspect)


def test_mc_divergence_rejects_bad_eps():
    with pytest.raises(ParameterError):
        mc_divergence(lambda v: v, np.zeros(4), eps=-1.0)


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
