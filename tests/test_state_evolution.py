import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from amplab.denoisers import (
    Denoiser,
    identity_denoiser,
    residual_shift_denoiser,
    signal_residual_denoiser,
    soft_threshold_denoiser,
    zero_denoiser,
)
from amplab.ensembles import SignalSpec, sample_haar_orthogonal, sample_noise, sample_signal
from amplab.exceptions import DimensionError, NumericError, ParameterError, ScheduleError
from amplab.rng import RngStream
from amplab.state_evolution import (
    Coloring,
    _border,
    _chol_factor,
    se_asymmetric,
    se_scalar_sensing,
    se_symmetric,
)


def test_jitter_fallback_is_recorded_on_the_sequence(caplog):
    # soft thresholding drives the iterate to zero, so Sigma_5 is singular
    cov, _ = se_symmetric([soft_threshold_denoiser(0.5)] * 5, np.ones(40), 6,
                          mc_samples=4, rng=RngStream(3))
    assert cov.jittered == ["sigma_5"]
    assert len(caplog.records) == 1
    cov, _ = se_symmetric([identity_denoiser()] * 2, np.ones(40), 3,
                          mc_samples=4, rng=RngStream(3))
    assert cov.jittered == []


def test_indefinite_covariance_error_names_it_and_its_smallest_eigenvalue():
    with pytest.raises(NumericError, match=r"omega_4 .*min eig -1\.000e\+00"):
        _chol_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), "omega_4", [])


def test_identity_chain_preserves_variance_and_unit_coefficients():
    n, T = 600, 4
    u1 = np.ones(n)
    cov, sched = se_symmetric([identity_denoiser()] * (T - 1), u1, T,
                              mc_samples=150, rng=RngStream(1))
    assert cov.sigma[0][0, 0] == 1.0
    assert sched.b == {t: 1.0 for t in range(2, T + 1)}
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


def test_asymmetric_rejects_an_empty_m_side():
    # without the check, m = 0 divided by zero and raised "sigma_1 is not symmetric"
    with pytest.raises(DimensionError, match="m must be >= 1, got 0"):
        se_asymmetric([identity_denoiser()], [], np.ones(4), 1, 0, mc_samples=2,
                      rng=RngStream(5))


def test_scalar_sensing_rejects_an_empty_noise_vector():
    # without the check, an empty e returned NaN and inf
    with pytest.raises(DimensionError, match="got lengths 4 and 0"):
        se_scalar_sensing(np.ones(4), np.zeros(0), [identity_denoiser()], 1, mc_draws=2,
                          rng=RngStream(5))


def test_scalar_sensing_short_eta_seq_rejected():
    with pytest.raises(ScheduleError, match="need 3 denoisers for T=3, got 2"):
        se_scalar_sensing(np.ones(10), np.zeros(5), [identity_denoiser()] * 2, 3,
                          mc_draws=2, rng=RngStream(5))


_TANH = Denoiser(fn=np.tanh)  # no divergence formula


@pytest.mark.parametrize("solve, named", [
    (lambda: se_symmetric([soft_threshold_denoiser(0.5), _TANH], np.ones(10), 3,
                          mc_samples=2, rng=RngStream(5)), r"f_seq\[1\]"),
    (lambda: se_asymmetric([identity_denoiser()] * 3, [identity_denoiser(), _TANH], np.ones(10),
                           3, 8, mc_samples=2, rng=RngStream(5)), r"g_seq\[1\]"),
], ids=["symmetric-f_seq", "asymmetric-g_seq"])
def test_a_denoiser_without_a_divergence_formula_is_refused_before_any_draw(
        monkeypatch, solve, named):
    # the solvers once probed such a denoiser's divergence by Monte Carlo
    def no_draws(self):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(RngStream, "generator", no_draws)
    with pytest.raises(ParameterError, match=named):
        solve()


# each case once failed late, with an untyped error or none
@pytest.mark.parametrize("solve, error, match", [
    (lambda: se_symmetric([], np.ones(10), 0, mc_samples=2), ParameterError, "T must be"),
    (lambda: se_asymmetric([], [], np.ones(10), 0, 8, mc_samples=2), ParameterError,
     "T must be"),
    (lambda: se_scalar_sensing(np.ones(10), np.ones(8), [], 0, mc_draws=2), ParameterError,
     "T must be"),
    (lambda: se_symmetric([identity_denoiser()], np.zeros(0), 2, mc_samples=2),
     DimensionError, "u1"),
    (lambda: se_symmetric([identity_denoiser()], np.eye(3), 2, mc_samples=2),
     DimensionError, "u1"),
    (lambda: se_asymmetric([identity_denoiser()] * 2, [identity_denoiser()], np.eye(3), 2, 8,
                           mc_samples=2), DimensionError, "u1"),
    (lambda: se_scalar_sensing(np.eye(3), np.ones(8), [identity_denoiser()], 1, mc_draws=2),
     DimensionError, "theta_star"),
    (lambda: se_scalar_sensing(np.ones(10), np.ones(8), [identity_denoiser()], 1, mc_draws=2,
                               K=np.eye(11)), DimensionError, "K"),
], ids=["symmetric-T0", "asymmetric-T0", "scalar-T0", "symmetric-empty-u1",
        "symmetric-matrix-u1", "asymmetric-matrix-u1", "scalar-matrix-theta", "scalar-K-shape"])
def test_se_entry_points_reject_bad_input_up_front(solve, error, match):
    with pytest.raises(error, match=match):
        solve()


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
    assert sched.a[1] == 1.0
    # identity on the n side: b = n/m exactly from the analytic divergence
    assert sched.b[2] == pytest.approx(n / m)


def test_asymmetric_zero_denoisers():
    m, n = 40, 30
    cov, _ = se_asymmetric([zero_denoiser(m)] * 2, [zero_denoiser(n)] * 2,
                           np.ones(n), 2, m, mc_samples=10, rng=RngStream(8))
    assert np.all(cov.sigma[1] == 0)
    assert np.all(cov.omega[1][1:, 1:] == 0)


def _sparse_recovery_se(density, noise_std, samples, seed, m=100, n=200, T=10):
    """se_asymmetric on the sparse-recovery pipeline of the se_matrix benchmark."""
    theta = sample_signal(SignalSpec(kind="sparse", dims=n, density=density),
                          RngStream(seed, 1)).vector
    e = sample_noise(m, noise_std, RngStream(seed, 2))
    g = signal_residual_denoiser(theta, soft_threshold_denoiser(0.5))
    return se_asymmetric([residual_shift_denoiser(e)] * T, [g] * T, theta, T, m,
                         mc_samples=samples, rng=RngStream(seed))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("density, noise_std, samples", [(0.2, 0.2, 5), (0.1, 0.05, 20)])
def test_asymmetric_covariances_need_no_jitter(density, noise_std, samples, seed):
    # covariance columns stitched from a fresh sample set per t were indefinite
    # here, even after jitter, and raised NumericError
    cov, _ = _sparse_recovery_se(density, noise_std, samples, seed)
    assert cov.jittered == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_path_covariances_are_positive_semidefinite(seed):
    cov, _ = _sparse_recovery_se(0.2, 0.2, 1, seed)
    for c in [*cov.sigma, *cov.omega]:
        w = np.linalg.eigvalsh(c)
        assert w.min() >= -1e-12 * w.max()


def test_symmetric_covariance_is_the_gram_matrix_of_its_path():
    n, T = 50, 4
    u1 = RngStream(20).generator().standard_normal(n)
    f = soft_threshold_denoiser(0.2)
    cov, _ = se_symmetric([f] * (T - 1), u1, T, mc_samples=1, rng=RngStream(21))
    assert cov.jittered == []
    # the one path, as the last iteration colours it: rows of L G, with G the
    # path's normals as the solver stores them (float32)
    chol = np.linalg.cholesky(cov.sigma[T - 2])
    G = RngStream(21).derive(0).generator().standard_normal((T - 1, n))
    z = chol @ G.astype(np.float32)
    F = np.column_stack([u1, *(f.apply(row) for row in z)])
    np.testing.assert_allclose(cov.sigma[-1], F.T @ F / n, rtol=0, atol=1e-12)


@pytest.mark.parametrize("T", [3, 6])
def test_each_path_is_drawn_once_per_solve(monkeypatch, T):
    draws = []
    generator = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda self: draws.append(self) or generator(self))
    samples = 7
    u1 = np.linspace(-1.0, 1.0, 30)
    se_symmetric([soft_threshold_denoiser(0.5)] * (T - 1), u1, T, mc_samples=samples,
                 rng=RngStream(11))
    assert len(draws) == samples
    m, n = 20, 30
    f_seq = [residual_shift_denoiser(np.full(m, 0.1))] * T
    g_seq = [signal_residual_denoiser(u1, soft_threshold_denoiser(0.5))] * T
    draws.clear()
    se_asymmetric(f_seq, g_seq, u1, T, m, mc_samples=samples, rng=RngStream(12))
    assert len(draws) == 2 * samples


def _redrawn_column(fs, t, lead, cov, rows, denom, samples, stream, rounded):
    """A covariance column and divergence by the per-iteration redraw that
    stored paths replace: path k's t x rows normals are drawn in float64 at
    every t, and rounded to float32 when rounded is set."""
    chol = _chol_factor(cov, "reference", [])
    out, div = [], 0.0
    for k in range(samples):
        G = stream.derive(k).generator().standard_normal((t, rows))
        z = chol @ (G.astype(np.float32) if rounded else G)
        F = np.column_stack([*([lead] if lead is not None else []),
                             *(f.apply(row) for f, row in zip(fs, z))])
        out.append(F.T @ F[:, -1] / denom)
        div += fs[t - 1].divergence(z[t - 1]) / denom
    return np.mean(out, axis=0), div / samples


def _max_relative_gap(got, want):
    """Largest entry gap of each pair over the largest |entry| of want."""
    assert len(got) == len(want)
    return max(np.max(np.abs(g - w)) / np.max(np.abs(w)) for g, w in zip(got, want))


@pytest.mark.parametrize("rounded, tol", [(True, 1e-12), (False, 1e-8)])
def test_stored_paths_match_redraws_per_iteration(rounded, tol):
    # with the redraws rounded to float32 only the summation order differs;
    # float64 redraws differ by the rounding of the normals
    n, T, samples = 200, 5, 20
    u1 = RngStream(12).generator().standard_normal(n)
    f_seq = [soft_threshold_denoiser(0.3)] * (T - 1)
    cov, sched = se_symmetric(f_seq, u1, T, mc_samples=samples, rng=RngStream(13))
    assert cov.jittered == []
    sigma, b = [np.array([[u1 @ u1 / n]])], {}
    for t in range(1, T):
        col, b[t + 1] = _redrawn_column(f_seq, t, u1, sigma[-1], n, n, samples,
                                        RngStream(13), rounded)
        sigma.append(_border(sigma[-1], col))
    assert _max_relative_gap(cov.sigma, sigma) <= tol
    np.testing.assert_allclose([sched.b[t] for t in b], list(b.values()), rtol=tol, atol=0)

    m, n, T = 100, 200, 4
    cov, sched = _sparse_recovery_se(0.3, 0.2, samples, 2, m=m, n=n, T=T)
    assert cov.jittered == []
    theta = sample_signal(SignalSpec(kind="sparse", dims=n, density=0.3),
                          RngStream(2, 1)).vector
    f_seq = [residual_shift_denoiser(sample_noise(m, 0.2, RngStream(2, 2)))] * T
    g_seq = [signal_residual_denoiser(theta, soft_threshold_denoiser(0.5))] * T
    omega, sigma, a, b = [np.array([[theta @ theta / m]])], [np.zeros((0, 0))], {}, {}
    for t in range(1, T + 1):
        col, a[t] = _redrawn_column(f_seq, t, None, omega[-1], m, m, samples,
                                    RngStream(2).derive(0), rounded)
        sigma.append(_border(sigma[-1], col))
        col, b[t + 1] = _redrawn_column(g_seq, t, theta, sigma[-1], n, m, samples,
                                        RngStream(2).derive(1), rounded)
        omega.append(_border(omega[-1], col))
    assert _max_relative_gap(cov.sigma, sigma[1:]) <= tol
    assert _max_relative_gap(cov.omega, omega) <= tol
    np.testing.assert_allclose([*(sched.a[t] for t in a), *(sched.b[t] for t in b)],
                               [*a.values(), *b.values()], rtol=tol, atol=0)


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
    assert sched.b[2] <= 0.0


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
    # cross-moment E[(1/n) Z_s^T f(Z_2)] must match b Sigma[s, 2], with b the
    # normalized divergence of f at Z_2, the column f reads
    n, draws = 800, 400
    cov = np.array([[1.0, 0.3], [0.3, 0.9]])
    den = soft_threshold_denoiser(0.5)
    gen = RngStream(19).generator()
    chol = np.linalg.cholesky(cov)
    for s in (0, 1):
        samples = []
        for _ in range(draws):
            z = gen.standard_normal((n, 2)) @ chol.T
            fz = den.apply(z[:, 1])
            b = den.divergence(z[:, 1]) / n
            samples.append(z[:, s] @ fz / n - b * cov[s, 1])
        samples = np.asarray(samples)
        se = samples.std(ddof=1) / np.sqrt(draws)
        assert abs(samples.mean()) < 3 * se
