from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from amplab import state_evolution
from amplab.denoisers import (
    Denoiser,
    SpectralSpec,
    identity_denoiser,
    residual_shift_denoiser,
    signal_residual_denoiser,
    soft_threshold_denoiser,
    svt_denoiser,
    zero_denoiser,
)
from amplab.ensembles import SignalSpec, sample_noise, sample_signal
from amplab.exceptions import DimensionError, NumericError, ParameterError, ScheduleError
from amplab.rng import RngStream
from amplab.state_evolution import (
    Coloring,
    OnsagerSchedule,
    SignedDCT,
    _border,
    _chol_factor,
    _Side,
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
    cov, sched = se_symmetric([zero_denoiser()] * 2, np.ones(n), 3,
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


def test_a_schedule_error_prints_its_bare_message():
    # as a KeyError it printed the repr of its message, quotes included
    with pytest.raises(LookupError) as info:
        OnsagerSchedule(b={2: 0.0}).coeff("b", 3)
    assert isinstance(info.value, ScheduleError) and not isinstance(info.value, KeyError)
    assert str(info.value) == "missing Onsager coefficient b[3]"
    with pytest.raises(ScheduleError) as info:
        se_symmetric([], np.ones(10), 3, mc_samples=5, rng=RngStream(5))
    assert str(info.value) == "need 2 denoisers for T=3, got 0"


@pytest.mark.parametrize("f_count, g_count, message", [
    (2, 2, "need 3 f-denoisers for T=3, got 2"),
    (3, 2, "need 3 g-denoisers for T=3, got 2"),
])
def test_asymmetric_short_sequences_rejected(f_count, g_count, message):
    m, n = 20, 15
    with pytest.raises(ScheduleError, match=message):
        se_asymmetric([zero_denoiser()] * f_count, [zero_denoiser()] * g_count,
                      np.ones(n), 3, m, mc_samples=2, rng=RngStream(5))


def test_asymmetric_rejects_an_empty_m_side():
    # without the check, m = 0 divided by zero and raised "sigma_1 is not symmetric"
    with pytest.raises(DimensionError, match="m must be an integer >= 1, got 0"):
        se_asymmetric([identity_denoiser()], [identity_denoiser()], np.ones(4), 1, 0, mc_samples=2,
                      rng=RngStream(5))


def test_scalar_sensing_rejects_an_empty_noise_vector():
    # without the check, an empty e returned NaN and inf
    with pytest.raises(DimensionError, match=r"e must be a non-empty vector, got shape \(0,\)"):
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
    (lambda: se_asymmetric([identity_denoiser()] * 3, [identity_denoiser(), _TANH, _TANH],
                           np.ones(10), 3, 8, mc_samples=2, rng=RngStream(5)), r"g_seq\[1\]"),
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
    (lambda: se_asymmetric([identity_denoiser()] * 2, [identity_denoiser()] * 2, np.eye(3), 2,
                           8, mc_samples=2), DimensionError, "u1"),
    (lambda: se_scalar_sensing(np.eye(3), np.ones(8), [identity_denoiser()], 1, mc_draws=2),
     DimensionError, "theta_star"),
    (lambda: se_scalar_sensing(np.ones(10), np.ones(8), [identity_denoiser()], 1, mc_draws=2,
                               K=_dct_colouring(np.ones(11))), DimensionError, "K must be 10 x 10"),
    # an ndarray K was once factored by an SVD; K is a Coloring or None
    (lambda: se_scalar_sensing(np.ones(10), np.ones(8), [identity_denoiser()], 1, mc_draws=2,
                               K=np.eye(10)), DimensionError, "K must be a Coloring or None"),
], ids=["symmetric-T0", "asymmetric-T0", "scalar-T0", "symmetric-empty-u1",
        "symmetric-matrix-u1", "asymmetric-matrix-u1", "scalar-matrix-theta", "scalar-K-shape",
        "scalar-K-ndarray"])
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
    # the shift declares its offset, so Sigma_1 = Omega_1 + |e|^2/m exactly
    assert cov.sigma[0][0, 0] == pytest.approx(omega1 + e @ e / m, rel=1e-14, abs=0)
    assert sched.a[1] == 1.0
    # identity on the n side: b = n/m exactly from the analytic divergence
    assert sched.b[2] == pytest.approx(n / m)


@pytest.mark.parametrize("block_rows", [1, 3, 10])
def test_se_solvers_do_not_depend_on_the_block_size(monkeypatch, block_rows):
    # one path a block, blocks of 3 (the last of the 10 paths alone), and
    # every path in one block: the covariances and the schedules stay bit
    # for bit those of the default block size
    def solve():
        theta = sample_signal(SignalSpec(kind="sparse", dims=60, density=0.3),
                              RngStream(4, 1)).vector
        e = sample_noise(40, 0.2, RngStream(4, 2))
        g = _undeclared(signal_residual_denoiser(theta, soft_threshold_denoiser(0.5)))
        sym = se_symmetric([soft_threshold_denoiser(0.5)] * 4, theta, 5, mc_samples=10,
                           rng=RngStream(5))
        asym = se_asymmetric([residual_shift_denoiser(e)] * 4, [g] * 4, theta, 4, 40,
                             mc_samples=10, rng=RngStream(6))
        return [(cov.sigma + (cov.omega or []), sched.a, sched.b) for cov, sched in (sym, asym)]

    want = solve()
    monkeypatch.setattr(state_evolution, "_block_rows", lambda row_bytes: block_rows)
    for (covs, a, b), (want_covs, want_a, want_b) in zip(solve(), want):
        assert all(np.array_equal(c, w) for c, w in zip(covs, want_covs))
        assert (a, b) == (want_a, want_b)


@pytest.mark.parametrize("block_rows", [None, 3])
def test_se_column_equals_a_path_by_path_loop(monkeypatch, block_rows):
    # the blocked column is bit for bit the loop that colours one path at a
    # time, applies each denoiser to one row and adds the terms in path order
    n, t, samples = 50, 3, 11
    gen = RngStream(12).generator()
    a = gen.standard_normal((t, t))
    cov = a @ a.T + np.eye(t)
    u1 = gen.standard_normal(n)
    theta = gen.standard_normal(n)
    f_seq = [soft_threshold_denoiser(0.3),
             signal_residual_denoiser(theta, soft_threshold_denoiser(0.5)),
             svt_denoiser(SpectralSpec(5, 10, 0.3))]  # a divergence that is no count
    side = _Side(f_seq, n, n, "f_seq", RngStream(13), samples)
    if block_rows is not None:
        monkeypatch.setattr(state_evolution, "_block_rows", lambda row_bytes: block_rows)
    col, div = side.column(u1, cov, "sigma_3", [])
    chol = np.linalg.cholesky(cov)
    want, want_div = np.zeros(t + 1), 0.0
    for k in range(samples):
        z = chol @ side.paths[k]
        ft = f_seq[t - 1].apply(z[t - 1])
        want[0] += u1 @ ft / n
        for r in range(1, t):
            want[r] += f_seq[r - 1].apply(z[r - 1]) @ ft / n
        want[t] += ft @ ft / n
        want_div += f_seq[t - 1].divergence(z[t - 1]) / n
    assert np.array_equal(col, want / samples)
    assert div == want_div / samples


def test_asymmetric_zero_denoisers():
    m, n = 40, 30
    cov, _ = se_asymmetric([zero_denoiser()] * 2, [zero_denoiser()] * 2,
                           np.ones(n), 2, m, mc_samples=10, rng=RngStream(8))
    assert np.all(cov.sigma[1] == 0)
    assert np.all(cov.omega[1][1:, 1:] == 0)


def _undeclared(den):
    """den with no declared closed form: the same map, which the SE solvers
    sample."""
    return replace(den, offset=None, residual=None)


def _sparse_recovery(density, noise_std, seed, m, n, T, declared=True):
    """(f_seq, g_seq, theta) of the sparse-recovery pipeline of the se_matrix
    benchmark; with declared False each side is its undeclared twin."""
    theta = sample_signal(SignalSpec(kind="sparse", dims=n, density=density),
                          RngStream(seed, 1)).vector
    f = residual_shift_denoiser(sample_noise(m, noise_std, RngStream(seed, 2)))
    g = signal_residual_denoiser(theta, soft_threshold_denoiser(0.5))
    if not declared:
        f, g = _undeclared(f), _undeclared(g)
    return [f] * T, [g] * T, theta


def _sparse_recovery_se(density, noise_std, samples, seed, m=100, n=200, T=10,
                        declared=True):
    """se_asymmetric on ``_sparse_recovery``'s pipeline, seeded by seed."""
    f_seq, g_seq, theta = _sparse_recovery(density, noise_std, seed, m, n, T, declared)
    return se_asymmetric(f_seq, g_seq, theta, T, m, mc_samples=samples, rng=RngStream(seed))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("density, noise_std, samples", [(0.2, 0.2, 5), (0.1, 0.05, 20)])
def test_asymmetric_covariances_need_no_jitter(density, noise_std, samples, seed):
    # covariance columns stitched from a fresh sample set per t were indefinite
    # here, even after jitter, and raised NumericError
    cov, _ = _sparse_recovery_se(density, noise_std, samples, seed, declared=False)
    assert cov.jittered == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_path_covariances_are_positive_semidefinite(seed):
    cov, _ = _sparse_recovery_se(0.2, 0.2, 1, seed, declared=False)
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
    # path's float64 normals
    chol = np.linalg.cholesky(cov.sigma[T - 2])
    G = RngStream(21).derive(0).generator().standard_normal((T - 1, n))
    z = chol @ G
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
    f_seq = [_undeclared(residual_shift_denoiser(np.full(m, 0.1)))] * T
    g_seq = [_undeclared(signal_residual_denoiser(u1, soft_threshold_denoiser(0.5)))] * T
    draws.clear()
    se_asymmetric(f_seq, g_seq, u1, T, m, mc_samples=samples, rng=RngStream(12))
    assert len(draws) == 2 * samples


def _redrawn_column(fs, t, lead, cov, rows, denom, samples, stream):
    """A covariance column and divergence by the per-iteration redraw that
    stored paths replace: path k's t x rows normals are drawn at every t."""
    chol = _chol_factor(cov, "reference", [])
    out, div = [], 0.0
    for k in range(samples):
        G = stream.derive(k).generator().standard_normal((t, rows))
        z = chol @ G
        F = np.column_stack([*([lead] if lead is not None else []),
                             *(f.apply(row) for f, row in zip(fs, z))])
        out.append(F.T @ F[:, -1] / denom)
        div += fs[t - 1].divergence(z[t - 1]) / denom
    return np.mean(out, axis=0), div / samples


def _exact_column(seq, lead, cov, denom):
    """The column and divergence term of an offset or residual side over seq
    at t = len(cov), as a solve takes them."""
    vector = seq[0].offset if seq[0].offset is not None else seq[0].residual[0]
    side = _Side(seq, vector.size, denom, "seq", RngStream(0), 1)
    assert side.family != "sampled"
    return side.column(lead, cov, "", [])


def _stored_paths(seq, rows, stream, samples):
    """The surrogate paths that a sampled side over seq draws from stream."""
    return _Side(seq, rows, 1, "seq", stream, samples).paths


def _max_relative_gap(got, want):
    """Largest entry gap of each pair over the largest |entry| of want."""
    assert len(got) == len(want)
    return max(np.max(np.abs(g - w)) / np.max(np.abs(w)) for g, w in zip(got, want))


def test_stored_paths_match_redraws_per_iteration():
    # the stored paths hold the very normals of the redraws, so only the
    # summation order differs
    tol = 1e-12
    n, T, samples = 200, 5, 20
    u1 = RngStream(12).generator().standard_normal(n)
    f_seq = [soft_threshold_denoiser(0.3)] * (T - 1)
    cov, sched = se_symmetric(f_seq, u1, T, mc_samples=samples, rng=RngStream(13))
    assert cov.jittered == []
    sigma, b = [np.array([[u1 @ u1 / n]])], {}
    for t in range(1, T):
        col, b[t + 1] = _redrawn_column(f_seq, t, u1, sigma[-1], n, n, samples,
                                        RngStream(13))
        sigma.append(_border(sigma[-1], col))
    assert _max_relative_gap(cov.sigma, sigma) <= tol
    np.testing.assert_allclose([sched.b[t] for t in b], list(b.values()), rtol=tol, atol=0)

    m, n, T = 100, 200, 4
    cov, sched = _sparse_recovery_se(0.3, 0.2, samples, 2, m=m, n=n, T=T, declared=False)
    assert cov.jittered == []
    f_seq, g_seq, theta = _sparse_recovery(0.3, 0.2, 2, m, n, T, declared=False)
    omega, sigma, a, b = [np.array([[theta @ theta / m]])], [np.zeros((0, 0))], {}, {}
    for t in range(1, T + 1):
        col, a[t] = _redrawn_column(f_seq, t, None, omega[-1], m, m, samples,
                                    RngStream(2).derive(0))
        sigma.append(_border(sigma[-1], col))
        col, b[t + 1] = _redrawn_column(g_seq, t, theta, sigma[-1], n, m, samples,
                                        RngStream(2).derive(1))
        omega.append(_border(omega[-1], col))
    assert _max_relative_gap(cov.sigma, sigma[1:]) <= tol
    assert _max_relative_gap(cov.omega, omega) <= tol
    np.testing.assert_allclose([*(sched.a[t] for t in a), *(sched.b[t] for t in b)],
                               [*a.values(), *b.values()], rtol=tol, atol=0)


def _column_terms(fs, t, lead, cov, paths, denom):
    """Mean and standard error of the per-path terms of one sampled
    covariance column, formed as ``_Side.column`` forms them from the stored
    paths and the Cholesky factor of cov, followed by those of the
    divergence term."""
    z = _chol_factor(cov, "reference", []) @ paths[:, :t]
    F = [f.fn(z[:, r]) for r, f in enumerate(fs[:t])]
    if lead is not None:
        F.insert(0, np.broadcast_to(lead, F[0].shape))
    divs = [fs[t - 1].divergence(row) for row in z[:, t - 1]]
    terms = np.column_stack([*(np.vecdot(col, F[-1]) for col in F), divs]) / denom
    return terms.mean(axis=0), terms.std(axis=0, ddof=1) / np.sqrt(len(terms))


@pytest.mark.parametrize("solver", ["symmetric", "asymmetric"])
def test_offset_columns_match_monte_carlo_of_their_undeclared_twin(solver):
    # At every step of a 2,000-path solve that samples the shift undeclared,
    # the closed-form column at the twin's own input covariance lies within 4
    # standard errors of the twin's column, each the standard error of the
    # twin's per-path terms. Conditioning on the input leaves one step's
    # Monte-Carlo error; between two whole solves the step errors compound
    # (5.2 step standard errors at Sigma_3 of the asymmetric case).
    samples = 2000
    if solver == "symmetric":
        n, T = 40, 5
        gen = RngStream(31).generator()
        u1, f = gen.standard_normal(n), residual_shift_denoiser(0.4 * gen.standard_normal(n))
        twin, _ = se_symmetric([_undeclared(f)] * (T - 1), u1, T, mc_samples=samples,
                               rng=RngStream(32))
        paths = _stored_paths([_undeclared(f)] * (T - 1), n, RngStream(32), samples)
        steps = [(t, u1, twin.sigma[t - 1], twin.sigma[t][:, t], n) for t in range(1, T)]
    else:
        m, n, T = 40, 60, 4
        twin, _ = _sparse_recovery_se(0.3, 0.3, samples, 33, m, n, T, declared=False)
        (f, *_), _, _ = _sparse_recovery(0.3, 0.3, 33, m, n, T)
        paths = _stored_paths([_undeclared(f)] * T, m, RngStream(33).derive(0), samples)
        steps = [(t, None, twin.omega[t - 1], twin.sigma[t - 1][:, t - 1], m)
                 for t in range(1, T + 1)]
    assert f.offset is not None and twin.jittered == []
    for t, lead, cov, want, denom in steps:
        got, div = _exact_column([f] * t, lead, cov, denom)
        mean, se = _column_terms([_undeclared(f)] * t, t, lead, cov, paths, denom)
        np.testing.assert_allclose(mean[:-1], want, rtol=1e-12, atol=0)  # the twin's own terms
        assert np.all(np.abs(got - want) <= 4 * se[:-1])
        assert div == f.offset.size / denom


@pytest.mark.parametrize("case", ["symmetric", "asymmetric", "asymmetric-two-residuals"])
def test_residual_columns_match_monte_carlo_of_their_undeclared_twin(case):
    # As for offsets: at every step of a 2,000-path solve that samples the
    # soft-threshold residuals undeclared, the closed-form column and
    # divergence term at the twin's own input covariance lie within 4
    # per-step standard errors of the twin's. The symmetric solve takes the
    # residual at theta* = 0, g(y) = -soft_threshold(y); the last case
    # alternates two residuals with different theta* and thresholds.
    samples = 2000
    if case == "symmetric":
        n, T = 40, 5
        u1 = RngStream(34).generator().standard_normal(n)
        g_seq = [signal_residual_denoiser(np.zeros(n), soft_threshold_denoiser(0.3))] * (T - 1)
        twin, sched = se_symmetric([_undeclared(g) for g in g_seq], u1, T,
                                   mc_samples=samples, rng=RngStream(35))
        paths = _stored_paths([_undeclared(g) for g in g_seq], n, RngStream(35), samples)
        steps = [(t, twin.sigma[t - 1], twin.sigma[t][:, t], sched.b[t + 1], n)
                 for t in range(1, T)]
    else:
        m, n, T = 40, 60, 4
        f_seq, g_seq, u1 = _sparse_recovery(0.3, 0.3, 36, m, n, T)
        if case == "asymmetric-two-residuals":
            other = signal_residual_denoiser(np.round(u1[::-1], 1), soft_threshold_denoiser(0.3))
            g_seq = [g_seq[0], other] * (T // 2)
        twin, sched = se_asymmetric([_undeclared(f) for f in f_seq],
                                    [_undeclared(g) for g in g_seq], u1, T, m,
                                    mc_samples=samples, rng=RngStream(36))
        paths = _stored_paths([_undeclared(g) for g in g_seq], n, RngStream(36).derive(1),
                              samples)
        steps = [(t, twin.sigma[t - 1], twin.omega[t][:, t], sched.b[t + 1], m)
                 for t in range(1, T + 1)]
    assert all(g.residual is not None for g in g_seq) and twin.jittered == []
    for t, cov, want, want_div, denom in steps:
        got, div = _exact_column(g_seq[:t], u1, cov, denom)
        mean, se = _column_terms([_undeclared(g) for g in g_seq], t, u1, cov, paths, denom)
        # the twin's own terms
        np.testing.assert_allclose(mean, [*want, want_div], rtol=1e-12, atol=0)
        assert np.all(np.abs(np.append(got, div) - mean) <= 4 * se)


def test_groups_split_coordinates_by_their_values_in_every_vector():
    a = np.array([0.0, 1.0, 0.0, 1.0, 0.0, -0.0, np.inf, -np.inf])
    b = np.array([2.0, 2.0, 3.0, 2.0, 2.0, 2.0, 2.0, 2.0])
    for vectors, groups in [([a, a], [[0, 2, 4, 5], [1, 3], [6], [7]]),
                            ([a, b, a], [[0, 4, 5], [1, 3], [2], [6], [7]])]:
        side = _Side([signal_residual_denoiser(v, soft_threshold_denoiser(0.5)) for v in vectors],
                     a.size, 1, "g_seq", RngStream(0), 1)
        inverse, counts = side.inverse, side.counts
        got = sorted(np.flatnonzero(inverse == j).tolist() for j in range(counts.size))
        assert got == groups
        assert counts.tolist() == [np.count_nonzero(inverse == j) for j in range(counts.size)]
        # each c_r holds its vector's value on every group
        assert all(np.array_equal(c[inverse], v) for c, v in zip(side.c, vectors))


def _soft(x, lmbda):
    """Soft thresholding by its textbook formula, independent of the library's."""
    return np.sign(x) * np.maximum(np.abs(x) - lmbda, 0.0)


def _quad_cross(c_r, c_t, lmbda, cov):
    """E g_r(Y_r) g_t(Y_t) of two soft-threshold residuals at (Y_r, Y_t) ~ N(0,
    cov) with |corr| = 1, by 1-D quadrature along the line Y_t = +-s_t/s_r Y_r."""
    s_r = np.sqrt(cov[0, 0])
    slope = cov[0, 1] / cov[0, 0]

    def g(c, y):
        return c - _soft(y + c, lmbda)

    kinks = [(sign * lmbda - c_r) / s_r for sign in (-1, 1)]
    kinks += [(sign * lmbda - c_t) / (slope * s_r) for sign in (-1, 1)]
    value, _ = quad(lambda u: g(c_r, s_r * u) * g(c_t, slope * s_r * u) * norm.pdf(u),
                    -12, 12, points=sorted(kinks), epsabs=1e-14, epsrel=1e-13, limit=200)
    return value


def _residual_pair(c_r, c_t, lmbda):
    return [signal_residual_denoiser(c, soft_threshold_denoiser(lmbda)) for c in (c_r, c_t)]


@pytest.mark.parametrize("corr", [1.0, -1.0])
def test_residual_column_at_unit_correlation_is_its_limit(corr):
    # Y_t = +-Y_r exactly: the closed form takes the steps that the Phi
    # factors tend to, and agrees with the 1-D integral along the line and
    # with a correlation a hair inside +-1
    c_r, c_t, lmbda = np.array([0.0, 0.8, -1.3]), np.array([0.4, -0.2, 1.3]), 0.5
    cov = np.array([[0.7, corr * np.sqrt(0.7 * 1.1)], [corr * np.sqrt(0.7 * 1.1), 1.1]])
    col, _ = _exact_column(_residual_pair(c_r, c_t, lmbda), None, cov, 3)
    want = sum(_quad_cross(a, b, lmbda, cov) for a, b in zip(c_r, c_t)) / 3
    assert col[0] == pytest.approx(want, rel=1e-12, abs=1e-14)
    near = cov.copy()
    near[0, 1] = near[1, 0] = cov[0, 1] * (1 - 1e-12)
    col_near, _ = _exact_column(_residual_pair(c_r, c_t, lmbda), None, near, 3)
    assert col_near[0] == pytest.approx(col[0], rel=1e-6)


def test_residual_column_at_the_edges_takes_their_limits():
    c = np.array([0.0, 0.3, -0.9, 2.0])
    u1 = np.array([1.0, -2.0, 0.5, 3.0])
    cov = np.array([[0.8, 0.3], [0.3, 0.6]])
    rows = c.size

    def column(lmbda, cov):
        return _exact_column(_residual_pair(c, c, lmbda), u1, cov, 7)

    # lmbda = 0: g(y) = -y, so the column is Cov[Y_r, Y_t] and div g = -rows
    col, div = column(0.0, cov)
    np.testing.assert_allclose(col, [0.0, *(rows * cov[:, 1] / 7)], rtol=1e-13, atol=1e-15)
    assert div == -rows / 7
    # lmbda = inf: g = c, a constant, whose divergence is 0
    col, div = column(np.inf, cov)
    np.testing.assert_array_equal(col, np.array([u1 @ c, c @ c, c @ c]) / 7)
    assert div == 0.0
    # sigma_t^2 = 0: g_t(Y_t) = g_t(0) = c - soft_threshold(c), a constant, and
    # the divergence counts |c| > lmbda at 0; a variance of 1e-30 is within 1e-13
    g0 = c - _soft(c, 0.5)
    mean_r = [quad(lambda y, ci=ci: (ci - _soft(y + ci, 0.5))
                   * norm.pdf(y, scale=np.sqrt(0.8)), -12, 12, points=[-0.5 - ci, 0.5 - ci],
                   epsabs=1e-15)[0] for ci in c]
    flat = np.diag([0.8, 0.0])
    col, div = column(0.5, flat)
    np.testing.assert_allclose(col, np.array([u1 @ g0, mean_r @ g0, g0 @ g0]) / 7,
                               rtol=1e-12, atol=1e-15)
    assert div == -np.count_nonzero(np.abs(c) > 0.5) / 7
    np.testing.assert_allclose(column(0.5, np.diag([0.8, 1e-30]))[0], col, rtol=1e-13,
                               atol=1e-15)


def test_a_residual_side_draws_no_paths_and_factors_no_covariance(monkeypatch):
    def refuse(*args):
        raise AssertionError("a path was drawn or a covariance factored")

    monkeypatch.setattr(RngStream, "generator", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    m, n, T = 20, 30, 4
    u1 = np.linspace(-1.0, 1.0, n)
    g_seq = [signal_residual_denoiser(u1, soft_threshold_denoiser(0.5))] * T
    cov, _ = se_asymmetric([residual_shift_denoiser(np.full(m, 0.1))] * T, g_seq, u1, T, m,
                           mc_samples=7, rng=RngStream(12))
    assert cov.jittered == []
    residual = signal_residual_denoiser(np.zeros(n), soft_threshold_denoiser(0.5))
    cov, _ = se_symmetric([residual] * (T - 1), u1, T, mc_samples=7, rng=RngStream(13))
    assert cov.jittered == []


@pytest.mark.parametrize("family, builder", [("offset", "stack"), ("residual", "unique")])
def test_an_exact_side_is_prepared_once_per_solve(monkeypatch, family, builder):
    # a T = 10 solve stacks its offsets, or groups the coordinates of its
    # theta* vectors, once; each column once rebuilt them
    calls = []
    build = getattr(np, builder)
    monkeypatch.setattr(np, builder, lambda *args, **kw: calls.append(1) or build(*args, **kw))
    n, T = 30, 10
    u1 = np.linspace(-1.0, 1.0, n)
    den = {"offset": residual_shift_denoiser(u1),
           "residual": signal_residual_denoiser(u1, soft_threshold_denoiser(0.5))}[family]
    cov, _ = se_symmetric([den] * (T - 1), u1, T, mc_samples=2, rng=RngStream(14))
    assert len(cov.sigma) == T
    assert len(calls) == 1


# a sampled f side draws samples generators and factors T covariances, as the
# g side does; test_each_path_is_drawn_once_per_solve covers an undeclared one
@pytest.mark.parametrize("kind, f_sampled", [("declared", 0), ("mixed", 1)])
def test_an_offset_side_draws_no_paths_and_factors_no_covariance(monkeypatch, kind,
                                                                 f_sampled):
    draws, factors = [], []
    generator, cholesky = RngStream.generator, np.linalg.cholesky
    monkeypatch.setattr(RngStream, "generator", lambda self: draws.append(self) or generator(self))
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factors.append(a) or cholesky(a))
    m, n, T, samples = 20, 30, 4, 7
    u1 = np.linspace(-1.0, 1.0, n)
    shift = residual_shift_denoiser(np.full(m, 0.1))
    f_seq = {"declared": [shift] * T, "mixed": [shift, _undeclared(shift)] * (T // 2)}[kind]
    g_seq = [_undeclared(signal_residual_denoiser(u1, soft_threshold_denoiser(0.5)))] * T
    cov, _ = se_asymmetric(f_seq, g_seq, u1, T, m, mc_samples=samples, rng=RngStream(12))
    assert cov.jittered == []
    assert len(draws) == (1 + f_sampled) * samples
    assert len(factors) == (1 + f_sampled) * T
    draws.clear()
    factors.clear()
    se_symmetric([residual_shift_denoiser(u1)] * (T - 1), u1, T, mc_samples=samples,
                 rng=RngStream(13))
    assert draws == factors == []


# each offset once broadcast or mismatched silently against the side's rows
@pytest.mark.parametrize("solve, named", [
    (lambda: se_asymmetric([residual_shift_denoiser(np.array([0.5]))] * 2,
                           [identity_denoiser()] * 2, np.ones(10), 2, 8, mc_samples=2),
     r"f_seq\[0\]"),
    (lambda: se_asymmetric([residual_shift_denoiser(np.ones(8)),
                            residual_shift_denoiser(np.ones(9))],
                           [identity_denoiser()] * 2, np.ones(10), 2, 8, mc_samples=2),
     r"f_seq\[1\]"),
    (lambda: se_asymmetric([identity_denoiser()] * 2, [residual_shift_denoiser(np.ones(8))] * 2,
                           np.ones(10), 2, 8, mc_samples=2), r"g_seq\[0\]"),
    (lambda: se_symmetric([residual_shift_denoiser(np.ones(9))] * 2, np.ones(10), 3,
                          mc_samples=2), r"f_seq\[0\]"),
], ids=["asymmetric-f-broadcast", "asymmetric-f-mixed-lengths", "asymmetric-g",
        "symmetric"])
def test_an_offset_of_the_wrong_length_is_refused(solve, named):
    with pytest.raises(DimensionError, match=named):
        solve()


@pytest.mark.parametrize("solve, named", [
    (lambda g: se_asymmetric([identity_denoiser()] * 2, [g(50)] * 2, np.ones(40), 2, 8,
                             mc_samples=4), r"g_seq\[0\]"),
    (lambda g: se_asymmetric([identity_denoiser()] * 3, [g(40), g(50), g(50)], np.ones(40), 3,
                             8, mc_samples=4), r"g_seq\[1\]"),
    (lambda g: se_asymmetric([identity_denoiser()] * 2, [identity_denoiser(), g(50)],
                             np.ones(40), 2, 8, mc_samples=4), r"g_seq\[1\]"),
    (lambda g: se_symmetric([g(50)] * 2, np.ones(40), 3, mc_samples=4), r"f_seq\[0\]"),
], ids=["asymmetric-declared", "asymmetric-second", "asymmetric-mixed", "symmetric"])
def test_a_residual_of_the_wrong_length_is_refused_before_any_draw(monkeypatch, solve, named):
    # a mis-sized theta_star once died in numpy broadcasting, after the draws
    def no_draws(self):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(RngStream, "generator", no_draws)
    with pytest.raises(DimensionError, match=named):
        solve(lambda n: signal_residual_denoiser(np.ones(n), soft_threshold_denoiser(0.5)))


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
    col = _dct_colouring(RngStream(32).generator().uniform(0.5, 2.0, size=n))
    eta_seq = [soft_threshold_denoiser(0.5)] * T
    omega, pred = _per_draw_scalar_sensing(theta, e, eta_seq, T, 7, RngStream(33),
                                           K=_dense(col))
    sc = se_scalar_sensing(theta, e, eta_seq, T, mc_draws=7, rng=RngStream(33), K=col)
    assert np.allclose(sc.omega_sq, omega, rtol=1e-10, atol=0)
    assert np.allclose(sc.predicted_mse, pred, rtol=1e-10, atol=0)


def test_scalar_sensing_rejects_singular_K():
    n = 6
    with pytest.raises(NumericError, match="condition number"):
        se_scalar_sensing(np.ones(n), np.zeros(4), [soft_threshold_denoiser(0.2)], 1,
                          mc_draws=2, rng=RngStream(34), K=_dct_colouring(np.zeros(n)))


def _eig_factors(n=50):
    basis = SignedDCT.draw(n, RngStream(35))
    kappa = RngStream(36).generator().uniform(0.5, 2.0, size=n)
    return basis, kappa


def _dct_colouring(kappa):
    """K = O diag(kappa) O^T on a drawn signed, permuted DCT basis O."""
    return Coloring(SignedDCT.draw(len(kappa), RngStream(35)), kappa)


def _dense(col):
    """The colouring's K = O diag(kappa) O^T as a dense matrix, O formed
    column by column (column j is O e_j)."""
    O = col.basis.matvec(np.eye(col.kappa.size)).T
    return (O * col.kappa) @ O.T


def _assert_colours_as(col, K):
    """col.apply and col.solve agree with K @ x and inv(K) @ y, on one
    vector and row by row on a stack of three."""
    inv = np.linalg.inv(K)
    gen = RngStream(37).generator()
    for x in (gen.standard_normal(K.shape[0]), gen.standard_normal((3, K.shape[0]))):
        for got, ref in ((col.apply(x), x @ K.T), (col.solve(x), x @ inv.T)):
            assert got.shape == x.shape
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_coloring_matches_the_dense_path():
    # K formed through O^T (row i of O^T is O^T e_i), not through ``_dense``'s O
    basis, kappa = _eig_factors()
    Ot = basis.rmatvec(np.eye(basis.n)).T
    K = (Ot.T * kappa) @ Ot
    col = Coloring(basis, kappa)
    assert np.linalg.norm(K - _dense(col)) <= 1e-12 * np.linalg.norm(K)
    _assert_colours_as(col, K)
    assert abs(col.cond - np.linalg.cond(K)) <= 1e-12 * np.linalg.cond(K)


@pytest.mark.parametrize("K", [np.eye(4), np.eye(4).tolist(), 2.0],
                         ids=["ndarray", "list", "scalar"])
def test_coloring_of_refuses_anything_but_a_coloring_naming_K(K):
    # an ndarray K was once factored by an SVD and np.linalg.cond
    with pytest.raises(DimensionError, match="^K must be a Coloring or None, got "):
        Coloring.of(K, 4)


def test_the_identity_colouring_hands_back_its_argument():
    x, stack = np.arange(4.0), np.ones((3, 4))
    for col in (Coloring.of(None, 4), Coloring()):
        assert col.basis is None and col.kappa is None and col.cond == 1.0
        assert col.apply(x) is x and col.solve(x) is x
        assert col.apply(stack) is stack and col.solve(stack) is stack
        assert Coloring.of(col, 7) is col  # the identity fits every n


@pytest.mark.parametrize("spread", [0.0, 1e-13])
def test_coloring_singular_kappa(spread):
    basis, kappa = _eig_factors()
    kappa[7] = spread * kappa.max()  # a zero, or max/min above 1e12
    col = Coloring(basis, kappa)
    with pytest.raises(NumericError, match="condition number"):
        col.solve(np.ones(kappa.size))


def _dct_matrix(n):
    """The orthonormal DCT-II C as a dense matrix, from its defining cosines."""
    k, j = np.arange(n)[:, None], np.arange(n)
    C = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * j + 1) / (2 * n))
    C[0] /= np.sqrt(2.0)
    return C


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
def test_the_signed_dct_is_orthogonal_and_delocalised(n):
    basis = SignedDCT.draw(n, RngStream(40, n))
    O = basis.matvec(np.eye(n)).T  # column j is O e_j
    assert np.abs(O.T @ O - np.eye(n)).max() <= 1e-14
    assert np.abs(basis.rmatvec(np.eye(n)) - O).max() <= 1e-14  # row i is O^T e_i
    # O = S P C^T: row i is signs[i] times column perm[i] of C
    ref = basis.signs[:, None] * _dct_matrix(n).T[basis.perm]
    assert np.abs(O - ref).max() <= 1e-13
    assert np.abs(O).max() <= np.sqrt(2.0 / n) + 1e-15


def test_the_signed_dct_round_trip_is_exact_at_n_6400():
    n = 6400
    basis = SignedDCT.draw(n, RngStream(41))
    x = RngStream(42).generator().standard_normal((3, n))
    for back in (basis.matvec(basis.rmatvec(x)), basis.rmatvec(basis.matvec(x))):
        assert back.shape == x.shape
        assert np.linalg.norm(back - x) <= 1e-14 * np.linalg.norm(x)


def test_a_signed_dct_draw_is_reproducible_and_a_bad_one_is_refused():
    a, b = SignedDCT.draw(9, RngStream(43)), SignedDCT.draw(9, RngStream(43))
    assert np.array_equal(a.signs, b.signs) and np.array_equal(a.perm, b.perm)
    assert set(a.signs) <= {-1.0, 1.0} and sorted(a.perm) == list(range(9))
    with pytest.raises(DimensionError, match="n must be an integer"):
        SignedDCT.draw(0, RngStream(43))
    for signs, perm in (([1.0, 0.5], [0, 1]), ([], []), ([1.0, -1.0], [0, 0]),
                        ([1.0, -1.0], [0, 1, 2]), ([1.0, np.nan], [0, 1])):
        with pytest.raises(ParameterError):
            SignedDCT(signs, perm)
    # a bool perm once indexed as a mask, building a non-orthogonal O
    # (matvec([0, 1]) was [-0.707, -0.707]); a float one died with an IndexError
    for signs, perm in (([1.0, 1.0], [False, True]), ([1.0, -1.0, 1.0], [0.0, 1.0, 2.0])):
        with pytest.raises(ParameterError, match="^perm must be an integer permutation"):
            SignedDCT(signs, perm)


def test_an_integer_perm_of_any_width_builds_the_same_basis():
    signs = [1.0, -1.0, 1.0, -1.0, 1.0]
    ref = SignedDCT(signs, [3, 0, 4, 1, 2])
    x = RngStream(47).generator().standard_normal((2, 5))
    for dtype in (np.int32, np.uint8, np.uint64):
        basis = SignedDCT(signs, np.array([3, 0, 4, 1, 2], dtype=dtype))
        assert np.array_equal(basis.matvec(x), ref.matvec(x))
        assert np.array_equal(basis.rmatvec(x), ref.rmatvec(x))


def _assert_dct_colours_as_dense(n, sign):
    basis = SignedDCT.draw(n, RngStream(44, n))
    kappa = RngStream(45, n).generator().uniform(0.5, 2.0, size=n)
    kappa[::2] *= sign  # an indefinite K's condition number reads |kappa|
    O = basis.matvec(np.eye(n)).T
    col = Coloring(basis, kappa)
    K = (O * kappa) @ O.T
    _assert_colours_as(col, K)
    assert col.cond == np.abs(kappa).max() / np.abs(kappa).min()
    assert abs(col.cond - np.linalg.cond(K)) <= 1e-12 * np.linalg.cond(K)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_a_dct_colouring_matches_the_dense_colouring(n):
    _assert_dct_colours_as_dense(n, 1.0)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_an_indefinite_dct_colouring_matches_the_dense_colouring(n):
    _assert_dct_colours_as_dense(n, -1.0)


def test_a_dct_colouring_refuses_a_singular_kappa():
    # the condition number reads |kappa|: a tiny negative eigenvalue is as
    # singular as a zero one, while K itself still applies
    kappa = np.linspace(0.5, 2.0, 50)
    kappa[7] = -1e-13
    col = Coloring(SignedDCT.draw(50, RngStream(46)), kappa)
    assert col.cond == 2.0 / 1e-13
    assert np.all(np.isfinite(col.apply(np.ones(50))))
    with pytest.raises(NumericError, match="condition number"):
        col.solve(np.ones(50))


@pytest.mark.parametrize("mangle, error", [
    (lambda O, k: (O, k[:-1]), DimensionError),
    (lambda O, k: (None, k), ParameterError),
    (lambda O, k: (O, None), DimensionError),
    (lambda O, k: (O, np.where(np.arange(k.size) == 3, np.nan, k)), ParameterError),
    (lambda O, k: (O, np.where(np.arange(k.size) == 3, np.inf, k)), ParameterError),
    # a dense O was once taken and checked by a probe; a SignedDCT is
    # orthogonal by construction, and refuses what would make it otherwise
    (lambda O, k: (O.matvec(np.eye(O.n)).T, k), ParameterError),
    (lambda O, k: (SignedDCT(O.signs[:-1], np.arange(O.n - 1)), k), DimensionError),
    (lambda O, k: (SignedDCT(1.01 * O.signs, O.perm), k), ParameterError),
    (lambda O, k: (SignedDCT(np.where(np.arange(O.n) == 3, np.nan, O.signs), O.perm), k),
     ParameterError),
], ids=["kappa-too-short", "O-none", "kappa-none", "kappa-nan", "kappa-inf", "O-dense",
        "O-not-square", "O-scaled", "O-nan"])
def test_coloring_rejects_bad_factors(mangle, error):
    with pytest.raises(error):
        Coloring(*mangle(*_eig_factors()))


def test_a_coloring_is_checked_when_it_is_built():
    # built directly, a Coloring once trusted the cond it was handed and died
    # in apply with a bare IndexError
    with pytest.raises(DimensionError, match="^kappa must be a vector of length 5"):
        Coloring(SignedDCT.draw(5, RngStream(48)), np.ones(4))
    with pytest.raises(TypeError):
        Coloring(SignedDCT.draw(4, RngStream(48)), np.ones(4), cond=1.0)
    kappa = np.array([0.5, -2.0, 1.0, 1.0])
    col = Coloring(SignedDCT.draw(4, RngStream(48)), kappa)
    assert col.cond == 4.0 and col.kappa.dtype == np.float64
    # the caller's kappa once stayed the colouring's own: zeroing an entry
    # left cond at 4.0, and solve returned NaN and inf instead of refusing K
    kappa[0] = 0.0
    assert col.kappa[0] == 0.5 and not col.kappa.flags.writeable
    assert np.all(np.isfinite(col.solve(np.ones(4))))


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
