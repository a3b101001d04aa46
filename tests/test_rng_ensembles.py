import numpy as np
import pytest

from amplab.ensembles import (
    EnsembleSpec,
    _draw_entries,
    SignalSpec,
    sample_ginibre,
    sample_haar_orthogonal,
    sample_noise,
    sample_signal,
    sample_wigner,
)
from amplab.exceptions import DimensionError, SpecError
from amplab.rng import RngStream


def test_same_stream_is_bitwise_reproducible():
    spec = EnsembleSpec("wigner_iid", 30, 30, "uniform")
    a = sample_wigner(spec, RngStream(123, 5))
    b = sample_wigner(spec, RngStream(123, 5))
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    spec = EnsembleSpec("goe", 20, 20)
    a = sample_wigner(spec, RngStream(123, 0))
    b = sample_wigner(spec, RngStream(123, 1))
    assert not np.array_equal(a, b)


def test_nonsquare_symmetric_spec_rejected():
    with pytest.raises(DimensionError):
        EnsembleSpec("goe", 3, 4)


def test_goe_scalar_entry_variance_is_two_over_n():
    # n = 1: the single diagonal entry has variance 2
    draws = np.array([
        sample_wigner(EnsembleSpec("goe", 1, 1), RngStream(9, k))[0, 0]
        for k in range(4000)
    ])
    var = draws.var()
    se = np.sqrt(2.0) * 2.0 / np.sqrt(len(draws) - 1)  # sd of the variance of N(0,2)
    assert abs(var - 2.0) < 3 * se


def test_wigner_rademacher_two_by_two():
    w = sample_wigner(EnsembleSpec("wigner_iid", 2, 2, "rademacher"), RngStream(3))
    assert np.array_equal(w, w.T)
    assert set(np.round(np.abs(w).ravel(), 12)) == {round(1 / np.sqrt(2), 12)}


def _wigner_two_pass(spec, rng):
    """sample_wigner written with whole-matrix temporaries."""
    n, gen = spec.rows, rng.generator()
    if spec.kind == "goe":
        a = gen.standard_normal((n, n)) / np.sqrt(n)
        return (a + a.T) / np.sqrt(2.0)
    iu = np.triu_indices(n)
    w = np.zeros((n, n))
    w[iu] = _draw_entries(spec.entry_dist, len(iu[0]), gen) / np.sqrt(n)
    return w + np.triu(w, 1).T


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300, 2000])
@pytest.mark.parametrize("kind, dist", [("goe", "gaussian"), ("wigner_iid", "uniform"),
                                        ("wigner_iid", "rademacher")])
def test_in_place_wigner_is_bitwise_the_two_pass_formula(n, kind, dist):
    # block sizes straddle SYMMETRIZE_BLOCK = 128
    spec = EnsembleSpec(kind, n, n, dist)
    got = sample_wigner(spec, RngStream(n, 4))
    assert got.tobytes() == _wigner_two_pass(spec, RngStream(n, 4)).tobytes()


def test_goe_offdiagonal_second_moment():
    n = 500
    w = sample_wigner(EnsembleSpec("goe", n, n), RngStream(17))
    off = w[~np.eye(n, dtype=bool)]
    # each squared entry has mean 1/n and variance 2/n^2
    se = np.sqrt(2.0 / n**2 / off.size)
    assert abs((off**2).mean() - 1.0 / n) < 3 * se


def test_ginibre_scalar_is_standard_normal():
    draws = np.array([
        sample_ginibre(EnsembleSpec("ginibre_iid", 1, 1), RngStream(11, k))[0, 0]
        for k in range(3000)
    ])
    assert abs(draws.var() - 1.0) < 3 * np.sqrt(2.0 / len(draws))
    assert abs(draws.mean()) < 3 / np.sqrt(len(draws))


def test_ginibre_rademacher_entries():
    g = sample_ginibre(EnsembleSpec("ginibre_iid", 4, 6, "rademacher"), RngStream(5))
    assert set(np.abs(g).ravel()) == {0.5}


def test_ginibre_column_norms_near_one():
    g = sample_ginibre(EnsembleSpec("ginibre_iid", 400, 300), RngStream(23))
    mean_sq = (g**2).sum(axis=0).mean()
    assert abs(mean_sq - 1.0) < 0.05


def test_haar_dim_one_is_sign():
    vals = {sample_haar_orthogonal(1, RngStream(1, k))[0, 0] for k in range(20)}
    assert vals <= {-1.0, 1.0}
    assert len(vals) == 2


def test_haar_orthogonality_and_det():
    for k in range(5):
        q = sample_haar_orthogonal(3, RngStream(2, k))
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-10
        assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-8


def test_haar_first_coordinate_centered():
    dim, reps = 50, 10_000
    vals = np.array([
        sample_haar_orthogonal(dim, RngStream(31, k))[0, 0] for k in range(reps)
    ])
    se = 1.0 / np.sqrt(dim) / np.sqrt(reps)
    assert abs(vals.mean()) < 3 * se


def test_low_rank_signal_factors():
    spec = SignalSpec(kind="low_rank", dims=100 * 150, M=100, N=150, rank=20)
    s = sample_signal(spec, RngStream(77))
    from amplab.vecmat import mat

    # rank nonzero singular values, each in [0, sqrt(N)]
    d = np.linalg.svd(mat(s.vector, 100, 150), compute_uv=False)
    assert d.size == 100
    assert np.all(d[20:] < 1e-10) and np.all(d[:20] > 1e-10)
    assert np.all(d <= np.sqrt(150) + 1e-10)


def test_sparse_signal_support_count():
    n, density = 10_000, 0.1
    s = sample_signal(SignalSpec(kind="sparse", dims=n, density=density), RngStream(13))
    count = np.count_nonzero(s.vector)
    assert abs(count - n * density) < 3 * np.sqrt(n * density * (1 - density))


def test_smooth_image_bounded():
    spec = SignalSpec(kind="smooth_image", dims=40 * 30, M=40, N=30)
    s = sample_signal(spec, RngStream(4))
    assert np.abs(s.vector).max() <= 1.0


def test_rank_above_min_dim_rejected():
    with pytest.raises(SpecError):
        SignalSpec(kind="low_rank", dims=12, M=3, N=4, rank=5)


# The scaled moment of order k is mean |W_ij|^k times rows^(k/2).


def test_moment_check_rademacher_exact():
    g = sample_ginibre(EnsembleSpec("ginibre_iid", 50, 50, "rademacher"), RngStream(3))
    for k in (2, 4, 6):
        assert np.mean(np.abs(g) ** k) * 50 ** (k / 2) == pytest.approx(1.0, abs=1e-12)


def test_moment_check_goe_and_gaussian():
    n = 300
    w = sample_wigner(EnsembleSpec("goe", n, n), RngStream(19))
    off_diagonal = w[~np.eye(n, dtype=bool)]
    r2 = np.mean(off_diagonal**2) * n
    assert abs(r2 - 1.0) < 3 * np.sqrt(2.0 / off_diagonal.size)
    g = sample_ginibre(EnsembleSpec("ginibre_iid", 200, 200), RngStream(21))
    r4 = np.mean(g**4) * 200**2
    assert abs(r4 - 3.0) < 3 * np.sqrt(96.0 / g.size)


@pytest.mark.parametrize("dist", ["gaussian", "rademacher", "uniform"])
def test_scaled_moments_bounded_across_sizes(dist):
    for n in (50, 100, 200, 400):
        w = sample_wigner(EnsembleSpec("wigner_iid", n, n, dist), RngStream(29, n))
        off_diagonal = np.abs(w[~np.eye(n, dtype=bool)])
        g = np.abs(sample_ginibre(EnsembleSpec("ginibre_iid", n, n, dist), RngStream(31, n)))
        for k in (2, 3, 4):
            assert np.mean(off_diagonal**k) * n ** (k / 2) < 5.0
            assert np.mean(g**k) * n ** (k / 2) < 5.0


def test_noise_scaling():
    e = sample_noise(20_000, 0.05, RngStream(8))
    assert abs(e.std() - 0.05) < 3 * 0.05 / np.sqrt(2 * len(e))

