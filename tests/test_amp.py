import numpy as np
import pytest

from amplab.amp import (
    RectAmpProblem,
    SensingProblem,
    SymmetricAmpProblem,
    run_asymmetric_amp,
    run_sensing_amp,
    run_symmetric_amp,
)
from amplab.denoisers import (
    Denoiser,
    identity_denoiser,
    residual_shift_denoiser,
    signal_residual_denoiser,
    soft_threshold_denoiser,
    zero_denoiser,
)
from amplab.ensembles import EnsembleSpec, sample_ginibre, sample_wigner
from amplab.exceptions import DimensionError, NumericError, ParameterError, ScheduleError
from amplab.rng import RngStream
from amplab.state_evolution import Coloring, OnsagerSchedule, se_scalar_sensing, se_symmetric


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
    sched = OnsagerSchedule(b={2: 1.0})
    prob = SymmetricAmpProblem(W=w, u1=u1, f_seq=[identity_denoiser()], onsager=sched)
    trace = run_symmetric_amp(prob, 2)
    z1 = w @ u1
    assert np.allclose(trace.z[:, 1], w @ z1 - u1, atol=1e-12)


def test_zero_start_stays_zero():
    n = 8
    prob = SymmetricAmpProblem(W=_goe(n, 5), u1=np.zeros(n),
                               f_seq=[zero_denoiser()] * 2,
                               onsager=OnsagerSchedule(b={2: 0.3, 3: 0.2}))
    trace = run_symmetric_amp(prob, 3)
    assert np.all(trace.z == 0) and np.all(trace.u == 0)


def test_missing_coefficient_raises():
    n = 6
    prob = SymmetricAmpProblem(W=_goe(n, 6), u1=np.ones(n),
                               f_seq=[identity_denoiser()] * 2,
                               onsager=OnsagerSchedule(b={2: 1.0}))
    with pytest.raises(ScheduleError, match=r"missing Onsager coefficient b\[3\]"):
        run_symmetric_amp(prob, 3)


@pytest.mark.parametrize("b, a, missing", [
    ({2: 0.1}, {1: 0.2}, r"a\[2\]"),
    ({}, {1: 0.2, 2: 0.3}, r"b\[2\]"),
])
def test_asymmetric_missing_coefficient_is_named(b, a, missing):
    prob = _rect_problem(35, 12, 9, 2)
    prob.onsager = OnsagerSchedule(b=b, a=a)
    with pytest.raises(ScheduleError, match=missing):
        run_asymmetric_amp(prob, 2)


def test_symmetric_run_applies_the_se_schedule_it_was_given():
    n, T = 50, 4
    u1 = RngStream(36).generator().standard_normal(n)
    f_seq = [soft_threshold_denoiser(0.5)] * (T - 1)
    _, sched = se_symmetric(f_seq, u1, T, mc_samples=5, rng=RngStream(37))
    trace = run_symmetric_amp(SymmetricAmpProblem(_goe(n, 38), u1, f_seq, sched), T)
    assert trace.b_applied[0] == 0.0
    assert trace.b_applied[1:].tolist() == [sched.b[t] for t in range(2, T + 1)]


def test_asymmetric_first_iteration_expansion():
    m, n = 12, 9
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(14))
    u1 = RngStream(15).generator().standard_normal(n)
    sched = OnsagerSchedule(a={1: 1.0})
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
    sched = OnsagerSchedule(b={2: 0.3}, a={1: 0.2, 2: 0.4})
    prob = RectAmpProblem(W=w, u1=np.zeros(n),
                          f_seq=[zero_denoiser()] * 2, g_seq=[zero_denoiser()] * 2,
                          onsager=sched)
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


def test_sensing_probe_onsager_is_the_probe_at_the_derived_stream():
    prob = _random_sensing(40, T=4)
    reps, rng = 5, RngStream(41)
    trace = run_sensing_amp(prob, 4, mc_reps=reps, rng=rng)
    assert trace.b_source == ["none"] + ["monte_carlo"] * 3
    m = prob.W.shape[0]
    for t in range(2, 5):
        # the argument eta_(t-1) was applied to at iteration t-1
        # the run's r_t is contiguous; a strided column can round differently
        arg = trace.theta[:, t - 2] + prob.W.T @ trace.r[:, t - 2].copy()
        probe = prob.eta_seq[t - 2].divergence_mc(arg, reps=reps, rng=rng.derive(t))
        assert trace.b_applied[t - 1] == probe / m


@pytest.mark.parametrize("formula, reps, source", [
    (True, None, "analytic"),
    (True, 7, "monte_carlo"),  # forced probe
    (False, None, None),  # no formula and no probe asked for: refused
    (False, 3, "monte_carlo"),
])
def test_onsager_takes_the_formula_unless_reps_is_given(formula, reps, source):
    prob = _random_sensing(43, T=2)
    if not formula:
        prob.eta_seq = [Denoiser(fn=np.tanh, name="tanh")] * 2
    rng = RngStream(41)
    if source is None:
        with pytest.raises(ParameterError, match=r"eta_seq\[0\] has no divergence formula"):
            run_sensing_amp(prob, 2, mc_reps=reps, rng=rng)
        return
    trace = run_sensing_amp(prob, 2, mc_reps=reps, rng=rng)
    assert trace.b_source == ["none", source]
    # the argument eta_1 was applied to at iteration 1
    arg = trace.theta[:, 0] + prob.W.T @ trace.r[:, 0].copy()
    eta = prob.eta_seq[0]
    div = (eta.divergence(arg) if reps is None
           else eta.divergence_mc(arg, reps=reps, rng=rng.derive(2)))
    assert trace.b_applied[1] == div / prob.W.shape[0]


def test_sensing_refuses_an_eta_without_a_formula_before_touching_W():
    # with mc_reps None such an eta was probed with 100 draws, unasked
    prob = _random_sensing(44, T=3)
    soft, tanh = prob.eta_seq[0], Denoiser(fn=np.tanh, name="tanh")
    prob.eta_seq = [soft, tanh, soft]
    W, prob.W = prob.W, None  # a matvec or a read of W's shape would fail
    with pytest.raises(ParameterError, match=r"eta_seq\[1\] has no divergence formula"):
        run_sensing_amp(prob, 3)
    # the last eta's divergence is never read, so it needs no formula
    prob.W, prob.eta_seq = W, [soft, soft, tanh]
    assert run_sensing_amp(prob, 3).b_source == ["none", "analytic", "analytic"]


def test_sensing_rejects_zero_probes_before_iterating():
    prob = _random_sensing(42, T=3)
    calls = []
    eta = prob.eta_seq[0]
    prob.eta_seq = [Denoiser(fn=lambda x: calls.append(1) or eta.fn(x),
                             divergence_fn=eta.divergence_fn)] * 3
    with pytest.raises(ParameterError, match="mc_reps"):
        run_sensing_amp(prob, 3, mc_reps=0)
    assert calls == []


def _change_of_variables_gap(prob, T):
    """Max relative deviation over t between the sensing recursion run
    directly and run through the asymmetric recursion under the change of
    variables u_t = theta_star - theta_t, z_t = r_t - e, f(z) = z + e,
    g_t(y) = theta_star - eta_t(y + theta_star). The schedule is a_t = 1 and
    b_t = -(the sensing b_t), read off the sensing trace."""
    direct = run_sensing_amp(prob, T)
    a = {t: 1.0 for t in range(1, T + 1)}
    b = {t: -direct.b_applied[t - 1] for t in range(2, T + 1)}
    mapped = run_asymmetric_amp(RectAmpProblem(
        W=prob.W, u1=prob.theta_star.copy(),
        f_seq=[residual_shift_denoiser(prob.e)] * T,
        g_seq=[signal_residual_denoiser(prob.theta_star, eta) for eta in prob.eta_seq[:T]],
        onsager=OnsagerSchedule(b=b, a=a)), T)
    worst = 0.0
    for t in range(1, T + 1):
        theta_direct = direct.theta[:, t]
        theta_mapped = prob.theta_star - mapped.u[:, t]
        scale = max(float(np.linalg.norm(theta_direct)), 1e-30)
        worst = max(worst, float(np.linalg.norm(theta_direct - theta_mapped)) / scale)
    return worst


def test_change_of_variables_identity():
    for seed in range(10):
        prob = _random_sensing(100 + seed)
        assert _change_of_variables_gap(prob, 3) <= 1e-8


def test_change_of_variables_zero_instance():
    m, n = 12, 9
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(21))
    prob = SensingProblem(W=w, theta_star=np.zeros(n), e=np.zeros(m),
                          eta_seq=[soft_threshold_denoiser(0.3)] * 3)
    assert _change_of_variables_gap(prob, 3) == 0.0


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
        b = 0.0 if t == 0 else prob.eta_seq[t - 1].divergence(prev_arg) / m
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
    assert prob.K.cond == np.linalg.cond(K) < 10


def test_aniso_ndarray_and_coloring_give_identical_traces():
    T = 4
    base, K = _colored_sensing(29, T=T)
    n = base.theta_star.size
    coloring = Coloring.of(K, n)
    assert Coloring.of(coloring, n) is coloring
    traces, conds = [], []
    for k in (K, coloring):
        prob = SensingProblem(W=base.W, theta_star=base.theta_star, e=base.e,
                              eta_seq=base.eta_seq, K=k)
        assert isinstance(prob.K, Coloring)
        traces.append(run_sensing_amp(prob, T))
        conds.append(prob.K.cond)
    raw, shared = traces
    for name in ("theta", "r", "b_applied", "mse"):
        assert np.array_equal(getattr(raw, name), getattr(shared, name))
    assert conds[0] == conds[1]


def test_aniso_K_shape_rejected():
    m, n = 8, 5
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(30))
    for K in (np.eye(n + 1), np.ones((n, n + 1)), Coloring.of(np.eye(n + 1), n + 1)):
        with pytest.raises(DimensionError, match=rf"K must be {n} x {n}"):
            SensingProblem(W=w, theta_star=np.zeros(n), e=np.zeros(m),
                           eta_seq=[soft_threshold_denoiser(0.2)], K=K)


@pytest.mark.parametrize("build", [
    lambda: SymmetricAmpProblem(W=np.zeros((0, 0)), u1=np.zeros(0), f_seq=[],
                                onsager=OnsagerSchedule()),
    lambda: RectAmpProblem(W=np.zeros((3, 0)), u1=np.zeros(0), f_seq=[], g_seq=[],
                           onsager=OnsagerSchedule()),
    lambda: SymmetricAmpProblem(W=np.eye(4), u1=np.ones((4, 1)), f_seq=[],
                                onsager=OnsagerSchedule()),
], ids=["symmetric-empty", "rect-empty", "symmetric-column"])
def test_amp_problems_refuse_a_u1_that_is_no_non_empty_vector(build):
    # run_symmetric_amp on a (0, 0) W once returned an empty trace
    with pytest.raises(DimensionError, match="u1"):
        build()


# each case once died in numpy with a bare ValueError, or was accepted
@pytest.mark.parametrize("build, named", [
    (lambda: se_scalar_sensing(np.ones(4), np.ones((3, 2)), [identity_denoiser()], 1,
                               mc_draws=2), "e"),
    (lambda: SensingProblem(W=np.ones((6, 4)), theta_star=np.ones(4), e=np.ones((3, 2)),
                            eta_seq=[]), "e"),
    (lambda: SensingProblem(W=np.ones((3, 4)), theta_star=np.ones((2, 2)), e=np.ones(3),
                            eta_seq=[]), "theta_star"),
    (lambda: SensingProblem(W=np.zeros((0, 0)), theta_star=np.zeros(0), e=np.zeros(0),
                            eta_seq=[]), "theta_star"),
], ids=["scalar-se-matrix-e", "sensing-matrix-e", "sensing-matrix-theta", "sensing-empty"])
def test_sensing_entry_points_refuse_a_vector_that_is_no_non_empty_vector(build, named):
    with pytest.raises(DimensionError, match=rf"^{named} must be a non-empty vector"):
        build()


def _rect_problem(seed, m, n, T):
    rng = RngStream(seed)
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), rng)
    u1 = rng.derive(1).generator().standard_normal(n)
    return RectAmpProblem(W=w, u1=u1, f_seq=[soft_threshold_denoiser(0.4)] * T,
                          g_seq=[soft_threshold_denoiser(0.3)] * T, onsager=OnsagerSchedule())


def test_symmetric_short_f_seq_raises_schedule_error():
    prob = SymmetricAmpProblem(W=_goe(6, 31), u1=np.ones(6), f_seq=[identity_denoiser()],
                               onsager=OnsagerSchedule(b={2: 1.0}))
    with pytest.raises(ScheduleError, match="need 2 denoisers for T=3, got 1"):
        run_symmetric_amp(prob, 3)


def test_asymmetric_short_g_seq_raises_schedule_error():
    # an explicit schedule once ran u_3 = 0 here
    prob = _rect_problem(32, 12, 9, 3)
    prob.g_seq = prob.g_seq[:1]
    with pytest.raises(ScheduleError, match="need 2 g-denoisers for T=3, got 1"):
        run_asymmetric_amp(prob, 3)


def test_asymmetric_short_f_seq_raises_schedule_error():
    prob = _rect_problem(33, 12, 9, 3)
    prob.f_seq = prob.f_seq[:2]
    with pytest.raises(ScheduleError, match="need 3 f-denoisers for T=3, got 2"):
        run_asymmetric_amp(prob, 3)


def test_sensing_short_eta_seq_raises_schedule_error():
    prob = _random_sensing(34, T=2)
    with pytest.raises(ScheduleError, match="need 3 denoisers for T=3, got 2"):
        run_sensing_amp(prob, 3)
