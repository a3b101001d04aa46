from dataclasses import FrozenInstanceError, replace

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
from amplab.state_evolution import (Coloring, OnsagerSchedule, SignedDCT, se_scalar_sensing,
                                     se_symmetric)


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
    prob = replace(_rect_problem(35, 12, 9, 2), onsager=OnsagerSchedule(b=b, a=a))
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
    prob = RectAmpProblem(W=w, u1=u1, f_seq=[identity_denoiser()],
                          g_seq=[identity_denoiser()], onsager=sched)
    trace = run_asymmetric_amp(prob, 1)
    z1 = w @ u1
    assert np.allclose(trace.z[:, 0], z1)
    assert np.allclose(trace.v[:, 0], z1)
    assert np.allclose(trace.y[:, 0], w.T @ z1 - u1)
    # g_T is always applied: u holds u_1 .. u_(T+1)
    assert trace.u.shape == (n, 2) and np.array_equal(trace.u[:, 1], trace.y[:, 0])


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
    return SensingProblem(theta_star=theta, e=e, eta_seq=[soft_threshold_denoiser(lam)] * T), w


def _observations(prob, w):
    """x = W K theta_star + e, the observations run_sensing_amp forms."""
    return w @ prob.K.apply(prob.theta_star) + prob.e


def test_sensing_zero_instance():
    m, n = 10, 8
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(17))
    prob = SensingProblem(theta_star=np.zeros(n), e=np.zeros(m),
                          eta_seq=[soft_threshold_denoiser(0.5)] * 2)
    trace = run_sensing_amp(prob, w, 2)
    assert np.all(trace.theta == 0) and np.all(trace.r == 0)
    assert np.all(trace.mse == 0)


def test_sensing_first_iteration_forced():
    prob, w = _random_sensing(18)
    trace = run_sensing_amp(prob, w, 1)
    x = _observations(prob, w)
    assert np.allclose(trace.r[:, 0], x)
    eta = prob.eta_seq[0]
    assert np.allclose(trace.theta[:, 1], eta.apply(w.T @ x))
    assert trace.b_applied[0] == 0.0


def test_sensing_dead_zone_threshold():
    prob, w = _random_sensing(19, lam=1e6)
    trace = run_sensing_amp(prob, w, 3)
    assert np.all(trace.theta == 0)
    # with theta pinned at zero the divergence count is zero, so b_t = 0
    assert np.all(trace.b_applied == 0)
    for t in range(3):
        assert np.allclose(trace.r[:, t], _observations(prob, w))


def test_sensing_probe_onsager_is_the_probe_at_the_derived_stream():
    prob, w = _random_sensing(40, T=4)
    reps, rng = 5, RngStream(41)
    trace = run_sensing_amp(prob, w, 4, mc_reps=reps, rng=rng)
    assert trace.b_source == ["none"] + ["monte_carlo"] * 3
    m = w.shape[0]
    for t in range(2, 5):
        # the argument eta_(t-1) was applied to at iteration t-1
        # the run's r_t is contiguous; a strided column can round differently
        arg = trace.theta[:, t - 2] + w.T @ trace.r[:, t - 2].copy()
        probe = prob.eta_seq[t - 2].divergence_mc(arg, reps=reps, rng=rng.derive(t))
        assert trace.b_applied[t - 1] == probe / m


@pytest.mark.parametrize("formula, reps, source", [
    (True, None, "analytic"),
    (True, 7, "monte_carlo"),  # forced probe
    (False, None, None),  # no formula and no probe asked for: refused
    (False, 3, "monte_carlo"),
])
def test_onsager_takes_the_formula_unless_reps_is_given(formula, reps, source):
    prob, w = _random_sensing(43, T=2)
    if not formula:
        prob = replace(prob, eta_seq=[Denoiser(fn=np.tanh, name="tanh")] * 2)
    rng = RngStream(41)
    if source is None:
        with pytest.raises(ParameterError, match=r"eta_seq\[0\] has no divergence formula"):
            run_sensing_amp(prob, w, 2, mc_reps=reps, rng=rng)
        return
    trace = run_sensing_amp(prob, w, 2, mc_reps=reps, rng=rng)
    assert trace.b_source == ["none", source]
    # the argument eta_1 was applied to at iteration 1
    arg = trace.theta[:, 0] + w.T @ trace.r[:, 0].copy()
    eta = prob.eta_seq[0]
    div = (eta.divergence(arg) if reps is None
           else eta.divergence_mc(arg, reps=reps, rng=rng.derive(2)))
    assert trace.b_applied[1] == div / w.shape[0]


def test_sensing_refuses_an_eta_without_a_formula_before_touching_W():
    # with mc_reps None such an eta was probed with 100 draws, unasked
    prob, w = _random_sensing(44, T=3)
    soft, tanh = prob.eta_seq[0], Denoiser(fn=np.tanh, name="tanh")
    prob = replace(prob, eta_seq=[soft, tanh, soft])
    # no W: a matvec or a read of W's shape would fail
    with pytest.raises(ParameterError, match=r"eta_seq\[1\] has no divergence formula"):
        run_sensing_amp(prob, None, 3)
    # the last eta's divergence is never read, so it needs no formula
    prob = replace(prob, eta_seq=[soft, soft, tanh])
    assert run_sensing_amp(prob, w, 3).b_source == ["none", "analytic", "analytic"]


def test_sensing_rejects_zero_probes_before_iterating():
    prob, w = _random_sensing(42, T=3)
    calls = []
    eta = prob.eta_seq[0]
    prob = replace(prob, eta_seq=[Denoiser(fn=lambda x: calls.append(1) or eta.fn(x),
                                           divergence_fn=eta.divergence_fn)] * 3)
    with pytest.raises(ParameterError, match="mc_reps"):
        run_sensing_amp(prob, w, 3, mc_reps=0)
    assert calls == []


def _change_of_variables_gap(prob, w, T):
    """Max relative deviation over t between the sensing recursion run
    directly and run through the asymmetric recursion under the change of
    variables u_t = theta_star - theta_t, z_t = r_t - e, f(z) = z + e,
    g_t(y) = theta_star - eta_t(y + theta_star). The schedule is a_t = 1 and
    b_t = -(the sensing b_t), read off the sensing trace."""
    direct = run_sensing_amp(prob, w, T)
    a = {t: 1.0 for t in range(1, T + 1)}
    b = {t: -direct.b_applied[t - 1] for t in range(2, T + 1)}
    mapped = run_asymmetric_amp(RectAmpProblem(
        W=w, u1=prob.theta_star.copy(),
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
        prob, w = _random_sensing(100 + seed)
        assert _change_of_variables_gap(prob, w, 3) <= 1e-8


def test_change_of_variables_zero_instance():
    m, n = 12, 9
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(21))
    prob = SensingProblem(theta_star=np.zeros(n), e=np.zeros(m),
                          eta_seq=[soft_threshold_denoiser(0.3)] * 3)
    assert _change_of_variables_gap(prob, w, 3) == 0.0


def _dct_colouring(kappa, seed=0):
    """K = O diag(kappa) O^T on a drawn signed, permuted DCT basis O."""
    return Coloring(SignedDCT.draw(len(kappa), RngStream(seed, 7)), kappa)


def _dense(col):
    """The colouring's K as a dense matrix, O formed column by column."""
    O = col.basis.matvec(np.eye(col.kappa.size)).T  # column j is O e_j
    return (O * col.kappa) @ O.T


def test_aniso_identity_K_matches_plain():
    base, w = _random_sensing(22)
    plain = run_sensing_amp(base, w, 3)
    colored = SensingProblem(theta_star=base.theta_star, e=base.e,
                             eta_seq=base.eta_seq, K=_dct_colouring(np.ones(base.theta_star.size)))
    aniso = run_sensing_amp(colored, w, 3)
    assert np.allclose(plain.theta, aniso.theta, atol=1e-10)


def test_aniso_scalar_K_hand_expansion():
    m, n, T = 20, 14, 1
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(23))
    gen = RngStream(24).generator()
    theta = gen.standard_normal(n)
    e = 0.05 * gen.standard_normal(m)
    K = 2.0 * np.eye(n)
    prob = SensingProblem(theta_star=theta, e=e,
                          eta_seq=[soft_threshold_denoiser(0.2)], K=_dct_colouring(np.full(n, 2.0)))
    trace = run_sensing_amp(prob, w, 1)
    x = (w @ K) @ theta + e
    # (K^T K)^(-1) (W K)^T = W^T / 2
    arg = (w.T @ x) / 2.0
    expect = prob.eta_seq[0].apply(arg)
    assert np.allclose(trace.theta[:, 1], expect, atol=1e-12)


def test_aniso_zero_instance():
    m, n = 9, 6
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(25))
    K = _dct_colouring(RngStream(26).generator().uniform(0.5, 2.0, n))
    prob = SensingProblem(theta_star=np.zeros(n), e=np.zeros(m),
                          eta_seq=[soft_threshold_denoiser(0.2)] * 2, K=K)
    trace = run_sensing_amp(prob, w, 2)
    assert np.all(trace.theta == 0)


def test_aniso_singular_K_rejected():
    m, n = 8, 5
    w = sample_ginibre(EnsembleSpec("ginibre_iid", m, n), RngStream(27))
    K = _dct_colouring(np.zeros(n))
    prob = SensingProblem(theta_star=np.zeros(n), e=np.zeros(m),
                          eta_seq=[soft_threshold_denoiser(0.2)], K=K)
    with pytest.raises(NumericError):
        run_sensing_amp(prob, w, 1)


def _colored_sensing(seed, m=30, n=40, T=4):
    """A sensing instance and a well-conditioned colouring K."""
    base, w = _random_sensing(seed, m=m, n=n, T=T)
    kappa = RngStream(seed).derive(2).generator().uniform(0.5, 2.0, n)
    return base, w, _dct_colouring(kappa, seed)


def _normal_equations_sensing(prob, w, K, T):
    """Reference coloured recursion: effective matrix W K and the
    normal-equations backprojection (K^T K)^(-1) (W K)^T r_t."""
    m, n = w.shape
    w_eff = w @ K
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
    base, w, col = _colored_sensing(28, T=T)
    prob = SensingProblem(theta_star=base.theta_star, e=base.e, eta_seq=base.eta_seq, K=col)
    assert prob.K is col  # problems that share a colouring share its basis
    trace = run_sensing_amp(prob, w, T)
    K = _dense(col)
    expect = _normal_equations_sensing(base, w, K, T)
    assert np.abs(expect).max() > 0.1  # the soft threshold lets signal through
    assert np.abs(trace.theta[:, 1:] - expect).max() <= 1e-10 * np.abs(expect).max()
    assert abs(prob.K.cond - np.linalg.cond(K)) <= 1e-12 * np.linalg.cond(K) < 10


def test_aniso_an_ndarray_K_is_refused_naming_K():
    # an ndarray K was once factored by an SVD; K is a Coloring or None
    m, n = 8, 5
    for K in (np.eye(n), np.eye(n + 1), np.ones((n, n + 1)), np.eye(n).tolist()):
        with pytest.raises(DimensionError, match="^K must be a Coloring or None, got "):
            SensingProblem(theta_star=np.zeros(n), e=np.zeros(m),
                           eta_seq=[soft_threshold_denoiser(0.2)], K=K)


def test_aniso_K_shape_rejected():
    m, n = 8, 5
    message = f"K must be {n} x {n}, got a colouring of size {n + 1}"
    with pytest.raises(DimensionError, match=f"^{message}$"):
        SensingProblem(theta_star=np.zeros(n), e=np.zeros(m),
                       eta_seq=[soft_threshold_denoiser(0.2)],
                       K=_dct_colouring(np.ones(n + 1)))


def _assert_same_trace(a, b):
    for name in ("theta", "r", "b_applied", "mse"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.b_source == b.b_source


def test_one_problem_runs_on_many_matrices_and_is_left_as_built():
    # the harness builds one problem per config and runs it on every cell's W
    base, w1, col = _colored_sensing(50, T=3)
    w2 = sample_ginibre(EnsembleSpec("ginibre_iid", *w1.shape, "rademacher"), RngStream(51))
    theta, e, kappa = base.theta_star.copy(), base.e.copy(), col.kappa.copy()
    shared = SensingProblem(theta_star=base.theta_star, e=base.e, eta_seq=base.eta_seq, K=col)
    for w in (w1, w2):
        fresh = SensingProblem(theta_star=theta.copy(), e=e.copy(), eta_seq=base.eta_seq,
                               K=_dct_colouring(kappa, 50))
        _assert_same_trace(run_sensing_amp(shared, w, 3), run_sensing_amp(fresh, w, 3))
    assert np.array_equal(shared.theta_star, theta) and np.array_equal(shared.e, e)
    assert shared.K is col and np.array_equal(col.kappa, kappa)
    assert np.array_equal(col.basis.signs, _dct_colouring(kappa, 50).basis.signs)


def test_a_sensing_problem_is_frozen_and_keeps_read_only_copies():
    theta, e = np.ones(5), np.ones(8)
    eta_seq = [soft_threshold_denoiser(0.2)]
    p = SensingProblem(theta, e, eta_seq)
    # a field assigned after the build would skip the checks of K
    with pytest.raises(FrozenInstanceError):
        p.K = np.eye(5)
    theta[0], e[0] = 7.0, 7.0
    eta_seq.append(soft_threshold_denoiser(0.3))
    assert np.array_equal(p.theta_star, np.ones(5)) and np.array_equal(p.e, np.ones(8))
    assert p.eta_seq == (eta_seq[0],)
    for v in (p.theta_star, p.e):
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 7.0
    w = np.ones((8, 5))
    assert np.array_equal(run_sensing_amp(p, w, 1).r[:, 0], w @ np.ones(5) + 1.0)


@pytest.mark.parametrize("symmetric", [True, False])
def test_a_recursion_problem_is_frozen_and_keeps_a_read_only_u1(symmetric):
    u1, f_seq = np.ones(4), [identity_denoiser()]
    if symmetric:
        W = np.eye(4)
        p = SymmetricAmpProblem(W=W, u1=u1, f_seq=f_seq, onsager=OnsagerSchedule())
    else:
        W = np.ones((3, 4))
        p = RectAmpProblem(W=W, u1=u1, f_seq=f_seq, g_seq=[zero_denoiser()],
                           onsager=OnsagerSchedule(a={1: 0.0}))
    # a W assigned after the build would skip its shape check
    with pytest.raises(FrozenInstanceError):
        p.W = np.ones((3, 3))
    with pytest.raises(FrozenInstanceError):
        p.f_seq = []
    u1[0] = 7.0
    f_seq.append(zero_denoiser())
    assert np.array_equal(p.u1, np.ones(4)) and p.f_seq == (f_seq[0],)
    with pytest.raises(ValueError, match="read-only"):
        p.u1[0] = 7.0
    if not symmetric:
        assert p.g_seq[0].name == "zero" and isinstance(p.g_seq, tuple)
    # W is kept as given, not copied: the run reads the caller's matrix
    assert p.W is W
    run = run_symmetric_amp(p, 1) if symmetric else run_asymmetric_amp(p, 1)
    assert np.array_equal(run.z[:, 0], W @ np.ones(4))
    # replace builds a new problem through the same checks
    with pytest.raises(DimensionError):
        replace(p, W=np.ones((3, 3)))


def test_a_run_refuses_a_W_of_the_wrong_shape_before_any_matvec(monkeypatch):
    m, n = 8, 5

    def no_matvec(self, x):
        raise AssertionError("K was applied before W was checked")

    monkeypatch.setattr(Coloring, "apply", no_matvec)
    for K in (None, _dct_colouring(np.ones(n))):
        prob = SensingProblem(np.ones(n), np.ones(m), [soft_threshold_denoiser(0.2)], K=K)
        for w in (np.ones((m, n + 1)), np.ones((n, m)), np.ones(m * n), np.ones((1, m, n))):
            with pytest.raises(DimensionError,
                               match=r"^W must be m x n with m = len\(e\), n = len\(theta_star\)$"):
                run_sensing_amp(prob, w, 1)


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
    (lambda: se_scalar_sensing(SensingProblem(np.ones(4), np.ones((3, 2)),
                                              [identity_denoiser()]), 1, mc_draws=2), "e"),
    (lambda: SensingProblem(theta_star=np.ones(4), e=np.ones((3, 2)), eta_seq=[]), "e"),
    (lambda: SensingProblem(theta_star=np.ones((2, 2)), e=np.ones(3), eta_seq=[]),
     "theta_star"),
    (lambda: SensingProblem(theta_star=np.zeros(0), e=np.zeros(0), eta_seq=[]), "theta_star"),
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
    # T - 1 g-denoisers were once accepted, and u_(T+1) was never computed
    prob = _rect_problem(32, 12, 9, 3)
    prob = replace(prob, g_seq=prob.g_seq[:2])
    with pytest.raises(ScheduleError, match="need 3 g-denoisers for T=3, got 2"):
        run_asymmetric_amp(prob, 3)


def test_asymmetric_short_f_seq_raises_schedule_error():
    prob = _rect_problem(33, 12, 9, 3)
    prob = replace(prob, f_seq=prob.f_seq[:2])
    with pytest.raises(ScheduleError, match="need 3 f-denoisers for T=3, got 2"):
        run_asymmetric_amp(prob, 3)


def test_sensing_short_eta_seq_raises_schedule_error():
    prob, w = _random_sensing(34, T=2)
    with pytest.raises(ScheduleError, match="need 3 denoisers for T=3, got 2"):
        run_sensing_amp(prob, w, 3)
