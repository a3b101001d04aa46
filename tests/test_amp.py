import numpy as np
import pytest

from amplab.amp import (
    RectAmpProblem,
    SensingProblem,
    SymmetricAmpProblem,
    change_of_variables_check,
    embed_symmetric,
    export_trace_csv,
    run_asymmetric_amp,
    run_sensing_amp,
    run_symmetric_amp,
)
from amplab.denoisers import (
    identity_denoiser,
    residual_shift_denoiser,
    signal_residual_denoiser,
    soft_threshold_denoiser,
    zero_denoiser,
)
from amplab.ensembles import EnsembleSpec, sample_ginibre, sample_wigner
from amplab.exceptions import DimensionError, NumericError, ParameterError, ScheduleError
from amplab.rng import RngStream
from amplab.state_evolution import Coloring, OnsagerSchedule


def _goe(n, seed):
    return sample_wigner(EnsembleSpec("goe", n, n), RngStream(seed))


def test_first_iteration_has_no_correction():
    n = 12
    w = _goe(n, 1)
    u1 = RngStream(2).generator().standard_normal(n)
    prob = SymmetricAmpProblem(W=w, u1=u1, f_seq=[], onsager=OnsagerSchedule())
    trace = run_symmetric_amp(prob, 1)
    assert np.array_equal(trace.z[:, 0], w @ u1)
    assert trace.z.shape == (n, 1)


def test_identity_denoiser_hand_expansion():
    n = 15
    w = _goe(n, 3)
    u1 = RngStream(4).generator().standard_normal(n)
    sched = OnsagerSchedule(b={(2, 1): 1.0})
    prob = SymmetricAmpProblem(W=w, u1=u1, f_seq=[identity_denoiser()], onsager=sched)
    trace = run_symmetric_amp(prob, 2)
    z1 = w @ u1
    assert np.allclose(trace.z[:, 1], w @ z1 - u1, atol=1e-12)


def test_zero_start_stays_zero():
    n = 8
    prob = SymmetricAmpProblem(W=_goe(n, 5), u1=np.zeros(n),
                               f_seq=[zero_denoiser(n)] * 2,
                               onsager=OnsagerSchedule(b={(2, 1): 0.3, (3, 1): 0.1, (3, 2): 0.2}))
    trace = run_symmetric_amp(prob, 3)
    assert np.all(trace.z == 0) and np.all(trace.u == 0)


def test_missing_coefficient_raises():
    n = 6
    prob = SymmetricAmpProblem(W=_goe(n, 6), u1=np.ones(n),
                               f_seq=[identity_denoiser()], onsager=OnsagerSchedule())
    with pytest.raises(ScheduleError):
        run_symmetric_amp(prob, 2)


def test_perturbed_delta_zero_is_bitwise_identical():
    n = 9
    w = _goe(n, 8)
    sched = OnsagerSchedule(b={(2, 1): 1.0})
    prob = SymmetricAmpProblem(w, np.ones(n), [identity_denoiser()], sched)
    a = run_symmetric_amp(prob, 2)
    b = run_symmetric_amp(prob, 2, delta=0.0, rng=RngStream(99))
    assert np.array_equal(a.z, b.z) and np.array_equal(a.u, b.u)


def test_perturbed_pure_noise_has_unit_norm_iterates():
    n = 5000
    w = _goe(n, 9)
    sched = OnsagerSchedule(b={(2, 1): 0.0, (3, 1): 0.0, (3, 2): 0.0})
    prob = SymmetricAmpProblem(w, np.zeros(n), [zero_denoiser(n)] * 2, sched)
    trace = run_symmetric_amp(prob, 3, delta=1.0, rng=RngStream(10))
    for t in range(3):
        norm_sq = trace.u[:, t] @ trace.u[:, t] / n
        assert abs(norm_sq - 1.0) < 3 * np.sqrt(2.0 / n)


def test_perturbed_initial_variance_adds_delta_squared():
    n = 2000
    delta = 0.7
    u1 = RngStream(12).generator().standard_normal(n)
    prob = SymmetricAmpProblem(np.zeros((n, n)), u1, [], OnsagerSchedule())
    trace = run_symmetric_amp(prob, 1, delta=delta, rng=RngStream(13))
    sigma1 = u1 @ u1 / n
    sigma1_pert = trace.u[:, 0] @ trace.u[:, 0] / n
    assert not np.array_equal(trace.u[:, 0], u1)
    assert abs(sigma1_pert - sigma1 - delta**2) < 3 * np.sqrt(2.0 / n) * (1 + delta**2)


def test_perturbed_run_needs_rng_and_nonnegative_delta():
    prob = SymmetricAmpProblem(_goe(4, 11), np.ones(4), [], OnsagerSchedule())
    with pytest.raises(ParameterError):
        run_symmetric_amp(prob, 1, delta=0.5)
    with pytest.raises(ParameterError):
        run_symmetric_amp(prob, 1, delta=-0.1, rng=RngStream(1))


def test_asymmetric_first_iteration_expansion():
    m, n = 12, 9
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(14))
    u1 = RngStream(15).generator().standard_normal(n)
    sched = OnsagerSchedule(a={(1, 1): 1.0})
    prob = RectAmpProblem(W=w, u1=u1, f_seq=[identity_denoiser()], g_seq=[],
                          onsager=sched)
    trace = run_asymmetric_amp(prob, 1)
    z1 = w @ u1
    assert np.allclose(trace.z[:, 0], z1)
    assert np.allclose(trace.v[:, 0], z1)
    assert np.allclose(trace.y[:, 0], w.T @ z1 - u1)


def test_asymmetric_zero_fixed_point():
    m, n = 7, 5
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(16))
    prob = RectAmpProblem(W=w, u1=np.zeros(n),
                          f_seq=[zero_denoiser(m)] * 2, g_seq=[zero_denoiser(n)] * 2,
                          onsager=None)
    trace = run_asymmetric_amp(prob, 2)
    assert np.all(trace.z == 0) and np.all(trace.y == 0) and np.all(trace.u == 0)


def _random_sensing(seed, m=35, n=25, T=3, lam=0.3, noise=0.1, density=0.4):
    rng = RngStream(seed)
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), rng)
    gen = rng.derive(1).generator()
    theta = gen.standard_normal(n) * (gen.random(n) < density)
    e = noise * gen.standard_normal(m)
    return SensingProblem(W=w, theta_star=theta, e=e,
                          eta_seq=[soft_threshold_denoiser(lam)] * T)


def test_sensing_zero_instance():
    m, n = 10, 8
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(17))
    prob = SensingProblem(W=w, theta_star=np.zeros(n), e=np.zeros(m),
                          eta_seq=[soft_threshold_denoiser(0.5)] * 2)
    trace = run_sensing_amp(prob, 2)
    assert np.all(trace.theta == 0) and np.all(trace.r == 0)
    assert np.all(trace.mse == 0)


def test_sensing_first_iteration_forced():
    prob = _random_sensing(18)
    trace = run_sensing_amp(prob, 1)
    assert np.allclose(trace.r[:, 0], prob.x)
    eta = prob.eta_seq[0]
    assert np.allclose(trace.theta[:, 1], eta.apply(prob.W.T @ prob.x))
    assert trace.b_applied[0] == 0.0


def test_sensing_dead_zone_threshold():
    prob = _random_sensing(19, lam=1e6)
    trace = run_sensing_amp(prob, 3)
    assert np.all(trace.theta == 0)
    # with theta pinned at zero the divergence count is zero, so b_t = 0
    assert np.all(trace.b_applied == 0)
    for t in range(3):
        assert np.allclose(trace.r[:, t], prob.x)


def test_sensing_x_consistency_guard():
    m, n = 6, 4
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(20))
    with pytest.raises(Exception):
        SensingProblem(W=w, theta_star=np.ones(n), e=np.zeros(m),
                       eta_seq=[soft_threshold_denoiser(0.1)], x=np.ones(m) * 99)


def test_change_of_variables_identity():
    for seed in range(10):
        prob = _random_sensing(100 + seed)
        assert change_of_variables_check(prob, 3) <= 1e-8


def test_change_of_variables_zero_instance():
    m, n = 12, 9
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(21))
    prob = SensingProblem(W=w, theta_star=np.zeros(n), e=np.zeros(m),
                          eta_seq=[soft_threshold_denoiser(0.3)] * 3)
    assert change_of_variables_check(prob, 3) == 0.0


def test_aniso_identity_K_matches_plain():
    base = _random_sensing(22)
    plain = run_sensing_amp(base, 3)
    colored = SensingProblem(W=base.W, theta_star=base.theta_star, e=base.e,
                             eta_seq=base.eta_seq, K=np.eye(base.theta_star.size))
    aniso = run_sensing_amp(colored, 3)
    assert np.allclose(plain.theta, aniso.theta, atol=1e-10)


def test_aniso_scalar_K_hand_expansion():
    m, n, T = 20, 14, 1
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(23))
    gen = RngStream(24).generator()
    theta = gen.standard_normal(n)
    e = 0.05 * gen.standard_normal(m)
    K = 2.0 * np.eye(n)
    prob = SensingProblem(W=w, theta_star=theta, e=e,
                          eta_seq=[soft_threshold_denoiser(0.2)], K=K)
    trace = run_sensing_amp(prob, 1)
    x = (w @ K) @ theta + e
    # (K^T K)^(-1) (W K)^T = W^T / 2
    arg = (w.T @ x) / 2.0
    expect = prob.eta_seq[0].apply(arg)
    assert np.allclose(trace.theta[:, 1], expect, atol=1e-12)


def test_aniso_zero_instance():
    m, n = 9, 6
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(25))
    K = np.diag(RngStream(26).generator().uniform(0.5, 2.0, n))
    prob = SensingProblem(W=w, theta_star=np.zeros(n), e=np.zeros(m),
                          eta_seq=[soft_threshold_denoiser(0.2)] * 2, K=K)
    trace = run_sensing_amp(prob, 2)
    assert np.all(trace.theta == 0)


def test_aniso_singular_K_rejected():
    m, n = 8, 5
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(27))
    K = np.zeros((n, n))
    prob = SensingProblem(W=w, theta_star=np.zeros(n), e=np.zeros(m),
                          eta_seq=[soft_threshold_denoiser(0.2)], K=K)
    with pytest.raises(NumericError):
        run_sensing_amp(prob, 1)


def _colored_sensing(seed, m=30, n=40, T=4):
    """A sensing instance and a non-symmetric, well-conditioned K."""
    base = _random_sensing(seed, m=m, n=n, T=T)
    gen = RngStream(seed).derive(2).generator()
    K = np.eye(n) + 0.3 * gen.standard_normal((n, n)) / np.sqrt(n)
    return base, K


def _normal_equations_sensing(prob, K, T):
    """Reference coloured recursion: effective matrix W K and the
    normal-equations backprojection (K^T K)^(-1) (W K)^T r_t."""
    m, n = prob.W.shape
    w_eff = prob.W @ K
    ktk = K.T @ K
    x = w_eff @ prob.theta_star + prob.e
    theta, r_prev, prev_arg = np.zeros(n), np.zeros(m), None
    out = []
    for t in range(T):
        b = 0.0 if t == 0 else prob.eta_seq[t - 1].divergence(prev_arg)[-1] / m
        r = x - w_eff @ theta + b * r_prev
        arg = theta + np.linalg.solve(ktk, w_eff.T @ r)
        theta = prob.eta_seq[t].apply(arg)
        out.append(theta)
        r_prev, prev_arg = r, arg
    return np.column_stack(out)


def test_aniso_matches_normal_equations_oracle():
    T = 4
    base, K = _colored_sensing(28, T=T)
    prob = SensingProblem(W=base.W, theta_star=base.theta_star, e=base.e,
                          eta_seq=base.eta_seq, K=K)
    trace = run_sensing_amp(prob, T)
    expect = _normal_equations_sensing(base, K, T)
    assert np.abs(expect).max() > 0.1  # the soft threshold lets signal through
    assert np.abs(trace.theta[:, 1:] - expect).max() <= 1e-10 * np.abs(expect).max()
    assert trace.condition_number == np.linalg.cond(K) < 10


def test_aniso_ndarray_and_coloring_give_identical_traces():
    T = 4
    base, K = _colored_sensing(29, T=T)
    coloring = Coloring.of(K)
    assert Coloring.of(coloring) is coloring
    traces = []
    for k in (K, coloring):
        prob = SensingProblem(W=base.W, theta_star=base.theta_star, e=base.e,
                              eta_seq=base.eta_seq, K=k)
        assert isinstance(prob.K, Coloring)
        traces.append(run_sensing_amp(prob, T))
    raw, shared = traces
    for name in ("theta", "r", "b_applied", "mse"):
        assert np.array_equal(getattr(raw, name), getattr(shared, name))
    assert raw.condition_number == shared.condition_number


def test_aniso_K_shape_rejected():
    m, n = 8, 5
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(30))
    for K in (np.eye(n + 1), np.ones((n, n + 1))):
        with pytest.raises(DimensionError):
            SensingProblem(W=w, theta_star=np.zeros(n), e=np.zeros(m),
                           eta_seq=[soft_threshold_denoiser(0.2)], K=K)


def _rect_with_static_schedule(seed, m, n, T):
    rng = RngStream(seed)
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), rng)
    gen = rng.derive(1).generator()
    u1 = gen.standard_normal(n)
    f_seq = [soft_threshold_denoiser(0.4) for _ in range(T)]
    g_seq = [soft_threshold_denoiser(0.3) for _ in range(T)]
    probe = RectAmpProblem(W=w, u1=u1, f_seq=f_seq, g_seq=g_seq, onsager=None)
    realized = run_asymmetric_amp(probe, T)
    sched = OnsagerSchedule(b=dict(realized.applied_b), a=dict(realized.applied_a))
    return RectAmpProblem(W=w, u1=u1, f_seq=f_seq, g_seq=g_seq, onsager=sched), realized


def test_embedding_iterate_identities():
    m, n, T = 24, 16, 3
    prob, rect_trace = _rect_with_static_schedule(28, m, n, T)
    sym, maps = embed_symmetric(prob, RngStream(29), T)
    sym_trace = run_symmetric_amp(sym, 2 * T)
    scale_z = np.abs(rect_trace.z).max()
    scale_y = np.abs(rect_trace.y).max()
    assert np.abs(maps.extract_z(sym_trace) - rect_trace.z).max() <= 1e-8 * scale_z
    assert np.abs(maps.extract_y(sym_trace) - rect_trace.y).max() <= 1e-8 * scale_y
    assert np.abs(maps.extract_u(sym_trace) - rect_trace.u[:, :T]).max() <= 1e-8
    assert np.abs(maps.extract_v(sym_trace) - rect_trace.v).max() <= 1e-8


def test_embedding_initialization_block():
    m, n, T = 10, 6, 2
    prob, _ = _rect_with_static_schedule(30, m, n, T)
    sym, maps = embed_symmetric(prob, RngStream(31), T)
    assert np.allclose(sym.u1[m:], maps.scale * prob.u1)
    assert np.all(sym.u1[:m] == 0)


def test_trace_csv_export(tmp_path):
    prob = _random_sensing(32)
    trace = run_sensing_amp(prob, 3)
    path = tmp_path / "trace.csv"
    export_trace_csv(path, trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,norm_z_sq_over_n,mse,b_applied"
    assert len(lines) == 4


def test_symmetric_short_f_seq_raises_schedule_error():
    prob = SymmetricAmpProblem(W=_goe(6, 31), u1=np.ones(6), f_seq=[identity_denoiser()],
                               onsager=OnsagerSchedule(b={(2, 1): 1.0}))
    with pytest.raises(ScheduleError, match="need 2 denoisers for T=3, got 1"):
        run_symmetric_amp(prob, 3)


@pytest.mark.parametrize("data_driven", [False, True])
def test_asymmetric_short_g_seq_raises_schedule_error(data_driven):
    # an explicit schedule ran u_3 = 0 here, and the data-driven run raised
    # a bare KeyError
    prob, _ = _rect_with_static_schedule(32, 12, 9, 3)
    prob.g_seq = prob.g_seq[:1]
    if data_driven:
        prob.onsager = None
    with pytest.raises(ScheduleError, match="need 2 g-denoisers for T=3, got 1"):
        run_asymmetric_amp(prob, 3)


def test_asymmetric_short_f_seq_raises_schedule_error():
    prob, _ = _rect_with_static_schedule(33, 12, 9, 3)
    prob.f_seq = prob.f_seq[:2]
    with pytest.raises(ScheduleError, match="need 3 f-denoisers for T=3, got 2"):
        run_asymmetric_amp(prob, 3)


def test_sensing_short_eta_seq_raises_schedule_error():
    prob = _random_sensing(34, T=2)
    with pytest.raises(ScheduleError, match="need 3 denoisers for T=3, got 2"):
        run_sensing_amp(prob, 3)
