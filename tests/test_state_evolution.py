import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from amplab.denoisers import (
    identity_denoiser,
    residual_shift_denoiser,
    signal_residual_denoiser,
    soft_threshold_denoiser,
    zero_denoiser,
)
from amplab.ensembles import sample_haar_orthogonal
from amplab.exceptions import DimensionError, NumericError, ParameterError, ScheduleError
from amplab.rng import RngStream
from amplab.state_evolution import (
    Coloring,
    OnsagerSchedule,
    SECovarianceSequence,
    export_se_csv,
    estimate_onsager_from_data,
    se_asymmetric,
    se_scalar_sensing,
    se_symmetric,
)
from amplab.state_evolution import test_function_gap as tf_gap


def test_jitter_fallback_is_recorded_on_the_sequence(caplog):
    # soft thresholding drives the iterate to zero, so Sigma_5 is singular
    cov, _ = se_symmetric([soft_threshold_denoiser(0.5)] * 5, np.ones(40), 6,
                          mc_samples=4, rng=RngStream(3))
    assert cov.jittered == ["sigma_5"]
    assert len(caplog.records) == 1
    cov, _ = se_symmetric([identity_denoiser()] * 2, np.ones(40), 3,
                          mc_samples=4, rng=RngStream(3))
    assert cov.jittered == []


def test_identity_chain_preserves_variance_and_unit_coefficients():
    n, T = 600, 4
    u1 = np.ones(n)
    cov, sched = se_symmetric([identity_denoiser()] * (T - 1), u1, T,
                              mc_samples=150, rng=RngStream(1))
    assert cov.sigma[0][0, 0] == 1.0
    for t in range(2, T + 1):
        assert sched.b[(t, t - 1)] == 1.0
        for s in range(1, t - 1):
            assert sched.b[(t, s)] == 0.0
    # diagonal stays near one (MC noise only: each step adds ~sqrt(2/(n*k)))
    drift_tol = 3 * T * np.sqrt(2.0 / (n * 150))
    for t in range(T):
        assert abs(cov.sigma[T - 1][t, t] - 1.0) < drift_tol


def test_soft_threshold_second_moment_matches_quadrature():
    n, samples, lam = 500, 400, 0.6
    u1 = np.ones(n)  # Sigma_1 = 1
    cov, _ = se_symmetric([soft_threshold_denoiser(lam)], u1, 2,
                          mc_samples=samples, rng=RngStream(2))
    second, _ = quad(lambda z: max(abs(z) - lam, 0.0) ** 2 * norm.pdf(z), -12, 12)
    fourth, _ = quad(lambda z: max(abs(z) - lam, 0.0) ** 4 * norm.pdf(z), -12, 12)
    se = np.sqrt(max(fourth - second**2, 0.0) / (n * samples))
    assert abs(cov.sigma[1][1, 1] - second) < 3 * se


def test_zero_denoisers_collapse():
    n = 50
    cov, sched = se_symmetric([zero_denoiser(n)] * 2, np.ones(n), 3,
                              mc_samples=20, rng=RngStream(3))
    assert np.all(cov.sigma[2][1:, :] == 0)
    assert np.all(cov.sigma[2][:, 1:] == 0)
    assert all(v == 0.0 for v in sched.b.values())


def test_nesting_is_exact_and_psd():
    n = 80
    cov, _ = se_symmetric([soft_threshold_denoiser(0.4)] * 3, np.ones(n), 4,
                          mc_samples=60, rng=RngStream(4))
    for t in range(1, 4):
        assert np.array_equal(cov.sigma[t - 1], cov.sigma[t][:t, :t])
    for sig in cov.sigma:
        w = np.linalg.eigvalsh(sig)
        assert w.min() >= -1e-8 * max(w.max(), 1.0)


def test_missing_denoisers_rejected():
    with pytest.raises(ScheduleError):
        se_symmetric([], np.ones(10), 3, mc_samples=5, rng=RngStream(5))


@pytest.mark.parametrize("f_count, g_count, message", [
    (2, 2, "need 3 f-denoisers for T=3, got 2"),
    (3, 1, "need 2 g-denoisers for T=3, got 1"),
])
def test_asymmetric_short_sequences_rejected(f_count, g_count, message):
    m, n = 20, 15
    with pytest.raises(ScheduleError, match=message):
        se_asymmetric([zero_denoiser(m)] * f_count, [zero_denoiser(n)] * g_count,
                      np.ones(n), 3, m, mc_samples=2, rng=RngStream(5))


def test_scalar_sensing_short_eta_seq_rejected():
    with pytest.raises(ScheduleError, match="need 3 denoisers for T=3, got 2"):
        se_scalar_sensing(np.ones(10), np.zeros(5), [identity_denoiser()] * 2, 3,
                          mc_draws=2, rng=RngStream(5))


def test_asymmetric_shift_denoiser_decomposition():
    m, n, samples = 300, 400, 200
    gen = RngStream(6).generator()
    e = 0.5 * gen.standard_normal(m)
    u1 = gen.standard_normal(n)
    cov, sched = se_asymmetric([residual_shift_denoiser(e)] * 2,
                               [identity_denoiser()] * 2, u1, 2, m,
                               mc_samples=samples, rng=RngStream(7))
    omega1 = u1 @ u1 / m
    assert cov.omega[0][0, 0] == pytest.approx(omega1)
    # Sigma_1 = Omega_1 + |e|^2/m within MC error of the chi-square mean
    expect = omega1 + e @ e / m
    se = np.sqrt(2.0 * omega1**2 / (m * samples)) * 3 + 3 * np.sqrt(omega1 * (e @ e / m) / (m * samples))
    assert abs(cov.sigma[0][0, 0] - expect) < max(se, 0.02)
    assert sched.a[(1, 1)] == 1.0
    # identity on the n side: b = n/m exactly from the analytic divergence
    assert sched.b[(2, 1)] == pytest.approx(n / m)


def test_asymmetric_zero_denoisers():
    m, n = 40, 30
    cov, _ = se_asymmetric([zero_denoiser(m)] * 2, [zero_denoiser(n)] * 2,
                           np.ones(n), 2, m, mc_samples=10, rng=RngStream(8))
    assert np.all(cov.sigma[1] == 0)
    assert np.all(cov.omega[1][1:, 1:] == 0)


def test_scalar_sensing_identity_denoiser_recursion():
    m, n, T = 200, 300, 3
    gen = RngStream(9).generator()
    theta = gen.standard_normal(n)
    e = 0.3 * gen.standard_normal(m)
    sc = se_scalar_sensing(theta, e, [identity_denoiser()] * T, T,
                           mc_draws=400, rng=RngStream(10))
    noise_sq = e @ e / m
    omega = theta @ theta / m
    for t in range(T):
        sigma_t = omega + noise_sq
        assert sc.sigma_sq[t] == pytest.approx(sigma_t)
        # identity eta: omega_(t+1)^2 = (n/m) sigma_t^2, predicted mse = sigma_t^2
        se_mc = 3 * sigma_t * np.sqrt(2.0 / (n * 400))
        assert abs(sc.omega_sq[t + 1] - (n / m) * sigma_t) < (n / m) * se_mc
        assert abs(sc.predicted_mse[t] - sigma_t) < se_mc
        omega = sc.omega_sq[t + 1]


def test_scalar_sensing_degenerate_and_dead_zone():
    m, n, T = 20, 30, 3
    zero = se_scalar_sensing(np.zeros(n), np.zeros(m),
                             [soft_threshold_denoiser(0.5)] * T, T,
                             mc_draws=10, rng=RngStream(11))
    assert all(v == 0 for v in zero.sigma_sq)
    assert all(v == 0 for v in zero.omega_sq)
    theta = RngStream(12).generator().standard_normal(n)
    dead = se_scalar_sensing(theta, np.zeros(m),
                             [soft_threshold_denoiser(1e9)] * T, T,
                             mc_draws=10, rng=RngStream(13))
    const = theta @ theta / m
    assert all(v == pytest.approx(const) for v in dead.omega_sq)


def test_scalar_sensing_agrees_with_asymmetric_solver():
    m, n, T = 250, 180, 3
    gen = RngStream(14).generator()
    theta = gen.standard_normal(n) * (gen.random(n) < 0.4)
    e = 0.2 * gen.standard_normal(m)
    eta = soft_threshold_denoiser(0.5)
    sc = se_scalar_sensing(theta, e, [eta] * T, T, mc_draws=300, rng=RngStream(15))
    cov, sched = se_asymmetric([residual_shift_denoiser(e)] * T,
                               [signal_residual_denoiser(theta, eta)] * T,
                               theta, T, m, mc_samples=300, rng=RngStream(16))
    for t in range(T):
        sig_scalar = sc.sigma_sq[t]
        sig_asym = cov.sigma[t][t, t]
        assert abs(sig_scalar - sig_asym) / sig_scalar < 0.05
        om_scalar = sc.omega_sq[t + 1]
        om_asym = cov.omega[t + 1][t + 1, t + 1]
        assert abs(om_scalar - om_asym) / max(om_scalar, 1e-12) < 0.08
    # the mapped g has divergence -div eta, so b is negative once signal survives
    assert sched.b[(2, 1)] <= 0.0


def _per_draw_scalar_sensing(theta, e, eta_seq, T, mc_draws, rng, K=None):
    """Reference: one draw per loop pass and the normal-equations
    backprojection (K^T K)^(-1) K^T y."""
    n, m = theta.size, e.size
    u1 = theta if K is None else K @ theta
    omega, pred = [float(u1 @ u1 / m)], []
    gen = rng.generator()
    for t in range(T):
        std = np.sqrt(max(omega[-1] + e @ e / m, 0.0))
        acc_omega = acc_mse = 0.0
        for _ in range(mc_draws):
            y = std * gen.standard_normal(n)
            back = y if K is None else np.linalg.solve(K.T @ K, K.T @ y)
            diff = theta - eta_seq[t].apply(back + theta)
            acc_mse += diff @ diff / n
            gu = diff if K is None else K @ diff
            acc_omega += gu @ gu / m
        omega.append(acc_omega / mc_draws)
        pred.append(acc_mse / mc_draws)
    return omega, pred


def _sparse_sensing_instance(seed, m=30, n=40):
    gen = RngStream(seed).generator()
    theta = gen.standard_normal(n) * (gen.random(n) < 0.4)
    return theta, 0.2 * gen.standard_normal(m)


def test_scalar_sensing_blocked_draws_equal_per_draw_loop():
    theta, e = _sparse_sensing_instance(29)
    eta_seq = [soft_threshold_denoiser(0.5)] * 4
    sc = se_scalar_sensing(theta, e, eta_seq, 4, mc_draws=7, rng=RngStream(30))
    omega, pred = _per_draw_scalar_sensing(theta, e, eta_seq, 4, 7, RngStream(30))
    assert sc.omega_sq == omega
    assert sc.predicted_mse == pred


def test_scalar_sensing_colored_matches_normal_equations():
    n, T = 40, 4
    theta, e = _sparse_sensing_instance(31, n=n)
    K = np.eye(n) + 0.3 * RngStream(32).generator().standard_normal((n, n)) / np.sqrt(n)
    eta_seq = [soft_threshold_denoiser(0.5)] * T
    omega, pred = _per_draw_scalar_sensing(theta, e, eta_seq, T, 7, RngStream(33), K=K)
    for k in (K, Coloring.of(K)):
        sc = se_scalar_sensing(theta, e, eta_seq, T, mc_draws=7, rng=RngStream(33), K=k)
        assert np.allclose(sc.omega_sq, omega, rtol=1e-10, atol=0)
        assert np.allclose(sc.predicted_mse, pred, rtol=1e-10, atol=0)


def test_scalar_sensing_rejects_singular_K():
    n = 6
    with pytest.raises(NumericError, match="condition number"):
        se_scalar_sensing(np.ones(n), np.zeros(4), [soft_threshold_denoiser(0.2)], 1,
                          mc_draws=2, rng=RngStream(34), K=np.zeros((n, n)))


def _eig_factors(n=50):
    O = sample_haar_orthogonal(n, RngStream(35))
    kappa = RngStream(36).generator().uniform(0.5, 2.0, size=n)
    return O, kappa


def test_coloring_from_eig_matches_the_dense_path():
    O, kappa = _eig_factors()
    K = (O * kappa) @ O.T
    col = Coloring.from_eig(O, kappa)
    assert np.array_equal(col.matrix, K)
    ref = np.linalg.inv(K)
    assert np.linalg.norm(col.inverse() - ref) <= 1e-12 * np.linalg.norm(ref)
    assert abs(col.cond - np.linalg.cond(K)) <= 1e-12 * np.linalg.cond(K)


@pytest.mark.parametrize("spread", [0.0, 1e-13])
def test_coloring_from_eig_singular_kappa(spread):
    O, kappa = _eig_factors()
    kappa[7] = spread * kappa.max()  # a zero, or max/min above 1e12
    col = Coloring.from_eig(O, kappa)
    with pytest.raises(NumericError, match="condition number"):
        col.inverse()


@pytest.mark.parametrize("mangle, error", [
    (lambda O, k: (O[:, :-1], k), DimensionError),
    (lambda O, k: (O, k[:-1]), DimensionError),
    (lambda O, k: (O, np.where(np.arange(k.size) == 3, np.nan, k)), ParameterError),
    (lambda O, k: (O, np.where(np.arange(k.size) == 3, np.inf, k)), ParameterError),
    (lambda O, k: (1.01 * O, k), ParameterError),
    (lambda O, k: (O + 1e-6 * np.eye(O.shape[0]), k), ParameterError),
    (lambda O, k: (np.where(np.eye(O.shape[0]) == 1, np.nan, O), k), ParameterError),
], ids=["O-not-square", "kappa-too-short", "kappa-nan", "kappa-inf", "O-scaled",
        "O-perturbed", "O-nan"])
def test_coloring_from_eig_rejects_bad_factors(mangle, error):
    with pytest.raises(error):
        Coloring.from_eig(*mangle(*_eig_factors()))


def test_mc_sample_size_convergence():
    n, T = 50, 3
    u1 = np.ones(n)
    f_seq = [soft_threshold_denoiser(0.4)] * (T - 1)
    small, _ = se_symmetric(f_seq, u1, T, mc_samples=1000, rng=RngStream(17))
    large, _ = se_symmetric(f_seq, u1, T, mc_samples=10_000, rng=RngStream(18))
    scale = max(abs(small.sigma[T - 1]).max(), 1.0)
    tol = 4.0 / np.sqrt(1000 * n) * scale
    assert np.abs(small.sigma[T - 1] - large.sigma[T - 1]).max() <= tol


def test_stein_consistency_of_coefficients():
    # cross-moment E[(1/n) Z_s^T f(Z)] must match sum_r b_(t+1)r Sigma[s, r]
    n, draws = 800, 400
    cov = np.array([[1.0, 0.3], [0.3, 0.9]])
    den = soft_threshold_denoiser(0.5)
    gen = RngStream(19).generator()
    chol = np.linalg.cholesky(cov)
    for s in (0, 1):
        samples = []
        for _ in range(draws):
            z = gen.standard_normal((n, 2)) @ chol.T
            fz = den.apply(z)
            divs = den.divergence(z) / n
            samples.append(z[:, s] @ fz / n - divs @ cov[s, :])
        samples = np.asarray(samples)
        se = samples.std(ddof=1) / np.sqrt(draws)
        assert abs(samples.mean()) < 3 * se


def test_test_function_gap_projection_and_surrogate():
    n, T = 400, 2
    u1 = np.ones(n)
    f_seq = [soft_threshold_denoiser(0.4)]
    cov, _ = se_symmetric(f_seq, u1, T, mc_samples=300, rng=RngStream(20))
    # a stack drawn from the surrogate law itself should show a small gap
    chol = np.linalg.cholesky(cov.sigma[1])
    z = RngStream(21).generator().standard_normal((n, 2)) @ chol.T
    proj = lambda stack: stack[:, 1]
    gap = tf_gap(z, proj, proj, cov, mc_draws=400, rng=RngStream(22))
    per_draw_sd = np.sqrt(2.0 / n) * cov.sigma[1][1, 1]
    assert gap < 4 * per_draw_sd  # empirical term fluctuates like one draw
    # zero stack with odd test functions: gap equals |MC mean| of the product
    zero_gap = tf_gap(np.zeros((n, 2)), proj, proj, cov,
                      mc_draws=400, rng=RngStream(23))
    assert zero_gap > 0.5 * cov.sigma[1][1, 1]


def test_test_function_gap_rejects_zero_draws():
    cov, _ = se_symmetric([identity_denoiser()], np.ones(10), 2, mc_samples=2,
                          rng=RngStream(5))
    proj = lambda stack: stack[:, 0]
    with pytest.raises(ParameterError):
        tf_gap(np.ones((10, 2)), proj, proj, cov, mc_draws=0)


def test_test_function_gap_rejects_a_stack_of_the_wrong_width():
    cov = SECovarianceSequence(sigma=[np.eye(1), np.eye(2), np.eye(3)])
    proj = lambda stack: stack[:, 0]
    with pytest.raises(DimensionError, match="final covariance is 3x3"):
        tf_gap(np.ones((10, 1)), proj, proj, cov, mc_draws=5)


def test_estimate_onsager_from_data_probe():
    n, m = 240, 180
    gen = RngStream(24).generator()
    z = gen.standard_normal((n, 2))
    sched = estimate_onsager_from_data(z, [identity_denoiser()] * 2, m,
                                       reps=300, rng=RngStream(25))
    assert sched.provenance == "estimated_from_data"
    se = np.sqrt(2.0 * n / 300) / m
    assert abs(sched.b[(2, 1)] - n / m) < 3 * se
    assert abs(sched.b[(3, 2)] - n / m) < 3 * se
    # soft threshold: probe matches the analytic count within 2 percent
    lam = 0.5
    den = soft_threshold_denoiser(lam)
    sched2 = estimate_onsager_from_data(z, [den], m, reps=200, rng=RngStream(26))
    exact = den.divergence(z[:, :1])[-1] / m
    assert abs(sched2.b[(2, 1)] - exact) / exact < 0.02
    # zero denoiser: exactly zero
    sched3 = estimate_onsager_from_data(z, [zero_denoiser(n)], m,
                                        reps=50, rng=RngStream(27))
    assert sched3.b[(2, 1)] == 0.0


def test_se_csv_export(tmp_path):
    n = 60
    cov, sched = se_symmetric([soft_threshold_denoiser(0.4)] * 2, np.ones(n), 3,
                              mc_samples=30, rng=RngStream(28))
    path = tmp_path / "se.csv"
    export_se_csv(path, cov, sched)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,sigma_tt,omega_tt,b_t_tminus1,a_tt,predicted_mse"
    assert len(lines) == 4
