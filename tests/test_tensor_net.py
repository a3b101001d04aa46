import dataclasses
import itertools

import numpy as np
import pytest

from amplab.exceptions import BudgetError, DimensionError, ParameterError, SpecError
from amplab.rng import RngStream
from amplab.tensor_net import (
    DENSE_MATERIALIZE_CAP,
    BcpQuery,
    DenseTensor,
    OrderedMultigraph,
    _assignment_sum,
    _contract,
    _merge_labels,
    alt_cycle_component_bound_check,
    bcp_ratio,
    common_n,
    eval_value_bruteforce,
    eval_value_contraction,
    load_network,
    save_network,
    validate_bcp_query,
    wick_expectation,
    wick_expectation_mc,
)
from amplab.vecmat import mat, vec


def test_single_edge_is_inner_product():
    a, b = np.array([1.0, -2.0, 0.5]), np.array([2.0, 0.0, 4.0])
    g = OrderedMultigraph(2, [(0, 1)])
    lab = {0: DenseTensor.from_array(a), 1: DenseTensor.from_array(b)}
    assert eval_value_bruteforce(g, lab) == pytest.approx(a @ b)
    assert eval_value_contraction(g, lab) == pytest.approx(a @ b)


def test_three_cycle_matches_hand_sum_and_trace():
    gen = RngStream(1).generator()
    n = 2
    a, b, c = gen.standard_normal((3, n, n))
    # vertex orderings chosen so each matrix reads (incoming, outgoing) edge
    g = OrderedMultigraph(3, [(0, 1), (1, 2), (2, 0)], incidence=[[2, 0], [0, 1], [1, 2]])
    lab = {0: DenseTensor.from_array(a), 1: DenseTensor.from_array(b),
           2: DenseTensor.from_array(c)}
    hand = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                hand += a[i, j] * b[j, k] * c[k, i]
    val = eval_value_bruteforce(g, lab)
    assert val == pytest.approx(hand, rel=1e-14)
    assert val == pytest.approx(np.trace(a @ b @ c), rel=1e-12)
    assert eval_value_contraction(g, lab) == pytest.approx(val, rel=1e-12)


def test_disconnected_union_multiplies():
    gen = RngStream(2).generator()
    vecs = gen.standard_normal((4, 3))
    g = OrderedMultigraph(4, [(0, 1), (2, 3)])
    lab = {i: DenseTensor.from_array(vecs[i]) for i in range(4)}
    expect = (vecs[0] @ vecs[1]) * (vecs[2] @ vecs[3])
    assert eval_value_bruteforce(g, lab) == pytest.approx(expect)
    assert eval_value_contraction(g, lab) == pytest.approx(expect)


def test_star_with_identity_center():
    gen = RngStream(3).generator()
    n, leaves = 4, 3
    edges = [(0, v) for v in range(1, leaves + 1)]
    g = OrderedMultigraph(leaves + 1, edges)
    lab = {0: DenseTensor.diagonal(np.ones(n), leaves)}
    for v in range(1, leaves + 1):
        lab[v] = DenseTensor.from_array(gen.standard_normal(n))
    brute = eval_value_bruteforce(g, lab)
    expect = np.sum(lab[1].values * lab[2].values * lab[3].values)
    assert brute == pytest.approx(expect, rel=1e-12)
    assert eval_value_contraction(g, lab) == pytest.approx(brute, rel=1e-12)


def test_contraction_matches_bruteforce_on_random_trees():
    gen = RngStream(4).generator()
    for _ in range(20):
        nv = int(gen.integers(2, 7))
        n = int(gen.integers(2, 7))
        edges = [(int(gen.integers(0, v)), v) for v in range(1, nv)]
        g = OrderedMultigraph(nv, edges)
        lab = {v: DenseTensor.from_array(gen.standard_normal((n,) * g.degree(v)))
               for v in range(nv)}
        a = eval_value_bruteforce(g, lab)
        b = eval_value_contraction(g, lab)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


def _random_factors(gen):
    """A factor list over labels 0..L-1, every label read: 1-3 tensors of
    random kind at n = 4 or 6, alternating ones of any (M, N) with M * N = n,
    each slot reading a label drawn from a few, so slots often tie."""
    n = int(gen.choice([4, 6]))
    shapes = [(m, n // m) for m in range(1, n + 1) if n % m == 0]
    ell = int(gen.integers(1, 5))
    factors = []
    for _ in range(int(gen.integers(1, 4))):
        kind = gen.choice(["dense", "diagonal", "alternating"])
        if kind == "alternating":
            m, n_cols = shapes[int(gen.integers(len(shapes)))]
            tensor = DenseTensor.alternating(int(gen.choice([2, 4])), m, n_cols)
        elif kind == "diagonal":
            tensor = DenseTensor.diagonal(gen.standard_normal(n), int(gen.integers(1, 4)))
        else:
            tensor = DenseTensor.from_array(gen.standard_normal((n,) * int(gen.integers(1, 4))))
        factors.append((tensor, [int(i) for i in gen.integers(0, ell, size=tensor.order)]))
    used = sorted({i for _, positions in factors for i in positions})
    relabel = {old: new for new, old in enumerate(used)}
    return [(t, [relabel[i] for i in positions]) for t, positions in factors], len(used)


def _dense(order, n, seed):
    return DenseTensor.from_array(RngStream(seed).generator().standard_normal((n,) * order))


FIXED_FACTORS = {
    # two alternating tensors of different (M, N) read one index pair
    "two_shapes_one_index": ([(DenseTensor.alternating(2, 2, 3), [0, 1]),
                              (DenseTensor.alternating(4, 3, 2), [1, 0, 2, 2])], 3),
    # M != N, every slot tied to one index, beside a dense vector
    "alternating_all_tied": ([(DenseTensor.alternating(4, 2, 3), [0, 0, 0, 0]),
                              (DenseTensor.from_array(np.arange(1.0, 7.0)), [0])], 1),
    # a dense tensor reads every slot of an M != N alternating tensor, so the
    # splitter's pairing of i with (row, col) shows
    "dense_reads_alternating": ([(DenseTensor.alternating(4, 2, 3), [0, 1, 2, 3]),
                                 (_dense(4, 6, 42), [3, 0, 1, 2])], 4),
    # a diagonal ties a dense matrix's two slots and an alternating pair
    "diagonal_bridge": ([(DenseTensor.diagonal(np.linspace(-1, 2, 6), 3), [0, 1, 2]),
                         (DenseTensor.from_array(np.arange(36.0).reshape(6, 6)), [0, 1]),
                         (DenseTensor.alternating(4, 3, 2), [2, 3, 3, 1])], 4),
}


@pytest.mark.parametrize("case", sorted(FIXED_FACTORS))
def test_engine_matches_the_enumeration_on_structured_ties(case):
    factors, num_indices = FIXED_FACTORS[case]
    want = _assignment_sum(factors, num_indices)
    assert abs(_contract(factors) - want) <= 1e-10 * max(abs(want), 1.0)


def test_engine_matches_the_enumeration_on_random_networks():
    gen = RngStream(41).generator()
    for _ in range(200):
        factors, num_indices = _random_factors(gen)
        want = _assignment_sum(factors, num_indices)
        assert abs(_contract(factors) - want) <= 1e-10 * max(abs(want), 1.0), factors


def test_bruteforce_budget_error():
    g = OrderedMultigraph(2, [(0, 1)] * 16)
    lab = {0: DenseTensor.diagonal(np.ones(16), 16), 1: DenseTensor.diagonal(np.ones(16), 16)}
    with pytest.raises(BudgetError):
        eval_value_bruteforce(g, lab)


def test_structured_materialization_cap():
    with pytest.raises(BudgetError):
        DenseTensor.diagonal(np.ones(65), 2).to_dense()


def test_multigraph_validation():
    with pytest.raises(SpecError):
        OrderedMultigraph(2, [(0, 0)])
    with pytest.raises(SpecError):
        OrderedMultigraph(3, [(0, 1)])  # vertex 2 isolated
    with pytest.raises(SpecError):
        OrderedMultigraph(2, [(0, 1)], incidence=[[0], [-1]])  # no edge -1


def test_direct_construction_checks_the_graph():
    # direct construction once skipped every check: this self-loop graph, vertex 1
    # listing an edge it does not touch, evaluated to 3.0, and num_vertices=2.5
    # died later with a bare TypeError
    with pytest.raises(SpecError, match="edge 0 is a self-loop"):
        OrderedMultigraph(num_vertices=2, edges=[(0, 0)], incidence=[[0, 0], [0]])
    with pytest.raises(DimensionError, match="num_vertices must be an integer >= 1, got 2.5"):
        OrderedMultigraph(num_vertices=2.5, edges=[(0, 1)], incidence=[[0], [0]])
    with pytest.raises(SpecError, match="edge 0 references a missing vertex"):
        OrderedMultigraph(2, [(0, 5)])
    assert OrderedMultigraph(3, [[0, 1], [1, 2], [0, 1]]).incidence == ((0, 2), (0, 1, 2), (1,))


def test_wick_odd_multiplicity_vanishes():
    t = DenseTensor.from_array(RngStream(5).generator().standard_normal((3, 3)))
    assert wick_expectation(t, [0, 1]) == 0.0
    t3 = DenseTensor.from_array(RngStream(6).generator().standard_normal((3, 3, 3)))
    assert wick_expectation(t3, [0, 0, 0]) == 0.0


def test_wick_matrix_trace():
    m = RngStream(7).generator().standard_normal((4, 4))
    assert wick_expectation(DenseTensor.from_array(m), [0, 0]) == pytest.approx(np.trace(m))
    # an order-0 tensor is its own expectation
    assert wick_expectation(DenseTensor.from_array(np.array(2.5)), []) == 2.5


def test_wick_rank_one_fourth_moment():
    a = np.array([0.5, -1.0, 2.0])
    t4 = DenseTensor.from_array(np.einsum("i,j,k,l->ijkl", a, a, a, a))
    exact = wick_expectation(t4, [0, 0, 0, 0])
    assert exact == pytest.approx(3 * (a @ a) ** 2, rel=1e-12)
    mc, se = wick_expectation_mc(t4, [0, 0, 0, 0], samples=200_000, rng=RngStream(8))
    assert abs(mc - exact) < 3 * se


def test_wick_mixed_streams_against_mc():
    gen = RngStream(9).generator()
    t = DenseTensor.from_array(gen.standard_normal((3, 3, 3, 3)))
    sigma = [0, 1, 0, 1]
    exact = wick_expectation(t, sigma)
    mc, se = wick_expectation_mc(t, sigma, samples=400_000, rng=RngStream(10))
    assert abs(mc - exact) < 3 * se


# fourth cumulant of each standardized entry law, from its moments: E xi^4 - 3
KAPPA_4 = {"gaussian": 0.0, "rademacher": 1.0 - 3.0, "uniform": 9.0 / 5.0 - 3.0}


@pytest.mark.parametrize("law", sorted(KAPPA_4))
def test_rank_one_fourth_moment_closed_form(law):
    # E (v^T xi)^4 = 3 |v|^4 + kappa_4 sum_i v_i^4
    v = np.array([0.5, -1.0, 2.0, 0.25])
    t4 = DenseTensor.from_array(np.einsum("i,j,k,l->ijkl", v, v, v, v))
    want = 3 * (v @ v) ** 2 + KAPPA_4[law] * np.sum(v**4)
    assert wick_expectation(t4, [0, 0, 0, 0], law) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("law", ["rademacher", "uniform"])
def test_non_gaussian_moment_against_mc(law):
    t = _dense(6, 3, 30)
    sigma = [0, 1, 0, 0, 1, 0]  # one stream fills four slots, the other two
    exact = wick_expectation(t, sigma, law)
    mc, se = wick_expectation_mc(t, sigma, samples=60_000, rng=RngStream(31), law=law)
    assert abs(mc - exact) < 3 * se
    # the sample tells this law from the Gaussian
    assert abs(mc - wick_expectation(t, sigma)) > 3 * se


def test_moment_rejects_untabulated_cumulants_and_unknown_laws():
    t8 = DenseTensor.diagonal(np.ones(2), 8)
    assert wick_expectation(t8, [0] * 8) == pytest.approx(2 * 105)  # 7!! per index
    with pytest.raises(ParameterError, match="order 6"):
        wick_expectation(t8, [0] * 8, "rademacher")
    with pytest.raises(SpecError, match="cauchy"):
        wick_expectation(t8, [0] * 8, "cauchy")


def _wick_mc_kronecker(tensor, sigma, n, samples, rng, chunk):
    """Oracle: per-sample values as (b, n^k) Kronecker rows, on the draw order
    wick_expectation_mc promises (per chunk, sorted streams, (b, n) each)."""
    d = tensor.order
    d1 = d // 2
    flat = tensor.to_dense().reshape(n**d1, n ** (d - d1))
    gen = rng.generator()
    vals = []
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        draws = {s: gen.standard_normal((b, n)) for s in sorted(set(sigma))}

        def kron(positions):
            out = np.ones((b, 1))
            for p in positions:
                out = (out[:, :, None] * draws[sigma[p]][:, None, :]).reshape(b, -1)
            return out

        vals.append(np.einsum("bi,bi->b", kron(range(d1)) @ flat, kron(range(d1, d))))
        done += b
    vals = np.concatenate(vals)
    mean = vals.sum() / samples
    var = max((vals**2).sum() / samples - mean**2, 0.0)
    return mean, np.sqrt(var / samples)


@pytest.mark.parametrize("tensor, sigma, samples, chunk", [
    (DenseTensor.from_array(np.array(2.5)), [], 50, 16),
    (_dense(1, 4, 21), [0], 1000, 300),
    (_dense(2, 3, 22), [0, 0], 1000, 300),
    (_dense(2, 5, 23), [1, 0], 999, 1000),
    (_dense(3, 3, 24), [0, 1, 0], 1000, 300),
    (_dense(4, 3, 25), [0, 0, 0, 0], 1000, 300),
    (_dense(4, 4, 26), [1, 0, 0, 1], 1001, 250),
    (_dense(6, 3, 27), [2, 0, 1, 1, 0, 2], 700, 256),
    (_dense(6, 2, 28), [0, 0, 0, 0, 0, 0], 513, 512),
    (DenseTensor.diagonal([0.5, -1.0, 2.0, 0.25], 4), [0, 1, 1, 0], 1000, 300),
])
def test_wick_mc_matches_kronecker_oracle_on_same_draws(tensor, sigma, samples, chunk):
    got = wick_expectation_mc(tensor, sigma, samples, RngStream(40), chunk=chunk)
    want = _wick_mc_kronecker(tensor, sigma, tensor.n, samples, RngStream(40), chunk)
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-12 * abs(want[1]))
    assert got[1] == pytest.approx(want[1], rel=1e-12)


@pytest.mark.parametrize("kwargs, error, field", [
    ({"samples": 0}, ParameterError, "samples"),
    ({"samples": -5}, ParameterError, "samples"),
    ({"chunk": 0}, ParameterError, "chunk"),
])
def test_wick_mc_rejects_bad_arguments(kwargs, error, field):
    args = {"samples": 100, "chunk": 1 << 14, **kwargs}
    with pytest.raises(error, match=field):
        wick_expectation_mc(_dense(2, 3, 29), [0, 0], rng=RngStream(1), **args)


def test_bcp_worked_order4_example_vs_nested_loops():
    n = 4
    gen = RngStream(11).generator()
    t1 = gen.standard_normal((n,) * 4)
    t2 = gen.standard_normal((n,) * 4)
    # slots: T1[i1,i1,i2,i3], T2[i2,i3,i4,i4]
    query = BcpQuery(orders=[4, 4], ell=4, pi=[0, 0, 1, 2, 1, 2, 3, 3])
    rep = validate_bcp_query(query)
    assert rep == {"even_multiplicity": True, "connected": True}
    hand = 0.0
    for i1, i2, i3, i4 in itertools.product(range(n), repeat=4):
        hand += t1[i1, i1, i2, i3] * t2[i2, i3, i4, i4]
    ratio = bcp_ratio(query, [DenseTensor.from_array(t1), DenseTensor.from_array(t2)])
    assert ratio == pytest.approx(abs(hand) / n, rel=1e-12)


def test_merge_labels_joins_chained_groups():
    # [b, c] joins [a, b] to [c, d] only through the chain a-b-c-d
    merged = _merge_labels([["a", "b"], ["c", "d"], ["b", "c"]])
    assert set(merged) == {"a", "b", "c", "d"}
    assert len(set(merged.values())) == 1 and merged["a"] in merged
    apart = _merge_labels([[0, 1], [2], [3, 4], [1, 0]])
    assert set(apart) == {0, 1, 2, 3, 4}
    assert [apart[0] == apart[1], apart[2] == 2, apart[3] == apart[4]] == [True] * 3
    assert len(set(apart.values())) == 3


def test_bcp_validation_flags():
    disjoint = BcpQuery(orders=[2, 2], ell=2, pi=[0, 0, 1, 1])
    rep = validate_bcp_query(disjoint)
    assert rep["even_multiplicity"] is True
    assert rep["connected"] is False
    single = BcpQuery(orders=[2], ell=2, pi=[0, 1])
    assert validate_bcp_query(single)["even_multiplicity"] is False


def test_bcp_identity_tensors_ratio_one():
    n = 10
    query = BcpQuery(orders=[2, 2], ell=2, pi=[0, 1, 0, 1])
    tensors = [DenseTensor.diagonal(np.ones(n), 2), DenseTensor.diagonal(np.ones(n), 2)]
    assert bcp_ratio(query, tensors) == pytest.approx(1.0)


def test_bcp_diagonal_bound_holds():
    gen = RngStream(12).generator()
    n = 12
    bound = 1.5
    query = BcpQuery(orders=[2, 4], ell=3, pi=[0, 1, 0, 1, 2, 2])
    tensors = [DenseTensor.diagonal(gen.uniform(-bound, bound, n), 2),
               DenseTensor.diagonal(gen.uniform(-bound, bound, n), 4)]
    assert bcp_ratio(query, tensors) <= bound**2


def test_bcp_transposition_invariance():
    gen = RngStream(13).generator()
    n = 3
    for _ in range(10):
        t1 = gen.standard_normal((n,) * 3)
        t2 = gen.standard_normal((n,) * 3)
        query = BcpQuery(orders=[3, 3], ell=3, pi=[0, 1, 2, 0, 1, 2])
        base = bcp_ratio(query, [DenseTensor.from_array(t1), DenseTensor.from_array(t2)])
        perm = list(gen.permutation(3))
        # transpose t1's slots by perm and relabel its slice of pi consistently
        t1_t = np.transpose(t1, axes=perm)
        pi_new = [query.pi[perm[j]] for j in range(3)] + list(query.pi[3:])
        query2 = BcpQuery(orders=[3, 3], ell=3, pi=pi_new)
        alt = bcp_ratio(query2, [DenseTensor.from_array(t1_t), DenseTensor.from_array(t2)])
        assert alt == pytest.approx(base, rel=1e-12)


# a connected order-4 query over two alternating tensors, and one that ties
# slots inside each tensor (ell = 2)
ALT_CONNECTED = BcpQuery(orders=[4, 4], ell=4, pi=[0, 1, 2, 3, 3, 2, 1, 0])
ALT_TIED = BcpQuery(orders=[4, 4], ell=2, pi=[0, 0, 1, 1, 0, 0, 1, 1])


def _bcp_bruteforce(query, tensors):
    factors = [(t, [query.pi[s] for s in slots])
               for t, slots in zip(tensors, query.slot_ranges())]
    return abs(_assignment_sum(factors, query.ell)) / tensors[0].n


@pytest.mark.parametrize("query", [ALT_CONNECTED, ALT_TIED], ids=["connected", "tied"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_bcp_alternating_matches_bruteforce(query, m):
    tensors = [DenseTensor.alternating(4, m, m)] * 2
    assert validate_bcp_query(query) == {"even_multiplicity": True, "connected": True}
    assert bcp_ratio(query, tensors) == pytest.approx(_bcp_bruteforce(query, tensors),
                                                      rel=1e-12)


def test_bcp_alternating_past_the_materialization_cap():
    tensors = [DenseTensor.alternating(4, 10, 10)] * 2
    assert tensors[0].n > DENSE_MATERIALIZE_CAP
    with pytest.raises(BudgetError):
        tensors[0].to_dense()
    assert bcp_ratio(ALT_CONNECTED, tensors) == pytest.approx(1.0, abs=1e-12)


def test_alternating_order_two_is_identity():
    t = DenseTensor.alternating(2, 2, 3)
    i, j = (np.array(idx) for idx in zip(*itertools.product(range(6), repeat=2)))
    assert np.array_equal(t.gather([i, j]), (i == j).astype(np.float64))


def test_alternating_order_four_contraction():
    t = DenseTensor.alternating(4, 2, 2)
    gen = RngStream(15).generator()
    xs = gen.standard_normal((3, 4))
    x1, x2, x3 = (mat(r, 2, 2) for r in xs)
    out = np.einsum("abcd,a,b,c->d", t.to_dense(), xs[0], xs[1], xs[2])
    assert np.allclose(out, vec(x1 @ x2.T @ x3) / 2.0, atol=1e-12)


def test_alternating_order_six_matches_dense():
    t = DenseTensor.alternating(6, 2, 2)
    gen = RngStream(16).generator()
    xs = gen.standard_normal((5, 4))
    x1, x2, x3, x4, x5 = (mat(r, 2, 2) for r in xs)
    out = np.einsum("abcdef,a,b,c,d,e->f", t.to_dense(), *xs)
    assert np.allclose(out, vec(x1 @ x2.T @ x3 @ x4.T @ x5) / 4.0, atol=1e-12)


def test_alternating_rejects_odd_order():
    with pytest.raises(SpecError):
        DenseTensor.alternating(3, 2, 2)


@pytest.mark.parametrize("build", [
    lambda: DenseTensor.from_array(np.zeros(0)),
    lambda: DenseTensor.diagonal(np.zeros(0), 2),
    lambda: DenseTensor.diagonal(np.ones((2, 2)), 2),
    lambda: DenseTensor.alternating(2, 0, 3),
    lambda: DenseTensor.alternating(2, 2.5, 2),
    lambda: DenseTensor.alternating(2.0, 2, 3),
], ids=["empty_dense", "empty_diagonal", "2d_diagonal", "zero_M", "float_M", "float_k"])
def test_constructors_reject_values_that_define_no_n(build):
    # each would give a tensor without a usable index size n or order
    with pytest.raises(DimensionError):
        build()


@pytest.mark.parametrize("fields", [
    dict(order=2, kind="dense", values=np.ones(3)),
    dict(order=1, kind="dense"),
    dict(order=0, kind="dense"),  # np.shape(None) == (), the shape of order 0
    dict(order=2, kind="diagonal", values=np.ones((3, 3))),
], ids=["dense_low_order", "dense_no_values", "dense_no_values_order_0", "diagonal_2d"])
def test_direct_construction_rejects_an_n_its_fields_contradict(fields):
    with pytest.raises(DimensionError):
        DenseTensor(**fields)


# each was accepted (order -1 with n = 1, order True) or died with a bare
# TypeError (order 2.0) when the stated order was trusted
@pytest.mark.parametrize("order, values", [
    (-1, np.float64(2.0)),
    (True, np.ones(2)),
    (2.0, np.ones((2, 2))),
], ids=["negative", "bool", "float"])
def test_a_stated_dense_order_other_than_the_values_ndim_is_refused(order, values):
    with pytest.raises(DimensionError, match=rf"^order must be {np.ndim(values)}, "):
        DenseTensor(order=order, kind="dense", values=values)


def test_a_dense_order_is_read_off_the_values():
    for values in (np.float64(2.0), np.ones(2), np.ones((2, 2))):
        assert DenseTensor(values=values).order == DenseTensor.from_array(values).order == (
            np.ndim(values))
    assert DenseTensor(order=np.int64(2), values=np.ones((2, 2))).order == 2
    nested = DenseTensor(values=[[1, 2], [3, 4]])  # as a network file holds them
    assert nested.values.dtype == np.float64 and nested.gather([[1], [0]]) == [3.0]


def test_tensors_are_frozen():
    t = DenseTensor.from_array(np.ones(3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.values = np.zeros(3)


def test_direct_construction_rejects_an_unknown_kind():
    with pytest.raises(SpecError, match="identity"):
        DenseTensor(order=2, kind="identity", values=np.ones(3))


def test_poly_alternating_cubic():
    # M != N: the gather's row and column constraints must not be swapped
    m_dim, n_dim = 2, 3
    n = m_dim * n_dim
    t = DenseTensor.alternating(4, m_dim, n_dim)
    z = RngStream(18).generator().standard_normal(n)
    out = np.einsum("abcd,a,b,c->d", t.to_dense(), z, z, z)
    x = mat(z, m_dim, n_dim)
    assert np.allclose(out, vec(x @ x.T @ x) / n_dim, atol=1e-12)


def test_graph_lemma_base_case_equality():
    rep = alt_cycle_component_bound_check([[0, 0]])
    assert rep["holds"] and rep["lhs"] == rep["rhs"] == 2


def test_graph_lemma_disjoint_union_doubles():
    rep = alt_cycle_component_bound_check([[0, 0], [1, 1]])
    assert rep["lhs"] == 4 and rep["rhs"] == 4.0 and rep["holds"]


def test_graph_lemma_random_instances():
    gen = RngStream(19).generator()
    for _ in range(300):
        cycles = []
        for _ in range(int(gen.integers(1, 5))):
            walk = [int(v) for v in gen.integers(0, 8, size=int(gen.integers(1, 4)))]
            cycles.append(walk + walk)
        rep = alt_cycle_component_bound_check(cycles)
        assert rep["holds"], cycles


def _scipy_counts(cycles):
    """The lemma's counts for one instance, each color graph built as a sparse
    matrix and its components counted by scipy."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    ids = {v: i for i, v in enumerate(dict.fromkeys(v for cyc in cycles for v in cyc))}
    edges = [(ids[cyc[i]], ids[cyc[(i + 1) % len(cyc)]], i % 2)
             for cyc in cycles for i in range(len(cyc))]

    def count(color):
        a, b = np.array([(a, b) for a, b, c in edges if color is None or c == color]).T
        graph = coo_matrix((np.ones(a.size), (a, b)), shape=(len(ids), len(ids)))
        return connected_components(graph, directed=False)[0]

    return {"c_red": count(0), "c_blue": count(1), "c_graph": count(None),
            "num_edges": len(edges), "num_cycles": len(cycles)}


def _random_lemma_instance(gen):
    """Cycles on a few sparse or negative labels, drawn with repeats, so there
    are self-loops and multi-edges: a walk taken twice, or an even sequence
    used as two cycles, which keeps every vertex's color degrees even."""
    pool = gen.choice([-(10**12), -3, -1, 0, 2, 7, 10**9, 2**62], size=int(gen.integers(1, 6)))
    cycles = []
    for _ in range(int(gen.integers(1, 4))):
        if gen.random() < 0.5:
            cycles.append(gen.choice(pool, size=int(gen.integers(1, 4))).tolist() * 2)
        else:
            cycles += [gen.choice(pool, size=2 * int(gen.integers(1, 3))).tolist()] * 2
    return cycles


def test_graph_lemma_counts_match_scipy_and_follow_their_instance():
    gen = RngStream(47).generator()
    instances = [_random_lemma_instance(gen) for _ in range(500)]
    keys = ["c_red", "c_blue", "c_graph", "num_edges", "num_cycles"]

    def batch(order, shuffle):
        """The batch report of the instances in order, each instance's cycles
        placed in the flat list in the order shuffle gives."""
        pairs = [(i, cyc) for i, k in enumerate(order) for cyc in instances[k]]
        pairs = [pairs[j] for j in shuffle(len(pairs))]
        return alt_cycle_component_bound_check([cyc for _, cyc in pairs],
                                               [i for i, _ in pairs])

    report = batch(range(len(instances)), range)
    want = [_scipy_counts(cycles) for cycles in instances]
    for key in keys:
        assert report[key].tolist() == [counts[key] for counts in want], key
    assert report["holds"].all()
    perm = gen.permutation(len(instances))
    permuted = batch(perm, gen.permutation)
    for key in report:
        assert np.array_equal(permuted[key], report[key][perm]), key
    for i in range(5):  # one instance alone is a batch of one, with scalar counts
        assert alt_cycle_component_bound_check(instances[i]) == {
            key: value[i].item() for key, value in report.items()}


MALFORMED_LEMMA_INPUTS = [
    (([[0, 1, 2]],), "instance 0, cycle 0 has length 3; need nonzero even"),
    (([[]],), "instance 0, cycle 0 has length 0"),
    (([[0, 1, 2, 3]],), "instance 0: vertex 0 has red and blue degree 1; need even"),
    (([],), "need at least one cycle"),
    # labels must be integers; 1.0 was once the vertex 1
    (([[0.5, 0.5]],), "instance 0, cycle 0: vertex label 0.5 is not an integer"),
    (([[None, None]],), "vertex label None is not"),
    (([["a", "a"]],), "vertex label 'a' is not"),
    (([[True, True]],), "vertex label True is not"),
    (([[1.0, 1.0, 1, 1]],), "vertex label 1.0 is not"),
    # a bad instance after a good one is named, and so is its cycle within it
    (([[0, 0], [2, 2], [3, 3, 0.5, 0.5]], [0, 1, 1]),
     "instance 1, cycle 1: vertex label 0.5 is not an integer"),
    (([[0, 0], [5, 5], [0, 1, 2]], [0, 1, 1]), "instance 1, cycle 1 has length 3"),
    (([[0, 0], [0, 1, 2, 3]], [0, 1]), "instance 1: vertex 0 has red and blue degree 1"),
    (([[0, 0], [1, 1], [2, 2]], [0, 2, 2]), "instance 1 has no cycles"),
    (([[0, 0], [1, 1]], [0, 2]), r"integer in 0\.\.1"),
    (([[0, 0]], [1.0]), "instance must give"),
    (([[0, 0]], [True]), "instance must give"),
    (([[0, 0]], [-1]), "instance must give"),
    (([[0, 0], [1, 1]], [0]), "instance must give"),
]


def test_graph_lemma_rejects_malformed():
    for args, message in MALFORMED_LEMMA_INPUTS:
        with pytest.raises(SpecError, match=message):
            alt_cycle_component_bound_check(*args)


def test_network_io_roundtrip(tmp_path):
    gen = RngStream(20).generator()
    n = 6
    # vertex 0 reads edges 0..3 in order; 1 and 2 each close one pair
    g = OrderedMultigraph(3, [(0, 1), (0, 1), (0, 2), (0, 2)],
                          incidence=[[0, 1, 2, 3], [1, 0], [2, 3]])
    lab = {0: DenseTensor.alternating(4, 2, 3),
           1: DenseTensor.from_array(gen.standard_normal((n, n))),
           2: DenseTensor.diagonal(gen.standard_normal(n), 2)}
    path = tmp_path / "net.json"
    save_network(str(path), g, lab)
    g2, lab2 = load_network(str(path))
    assert g2 == g
    for v, t in lab.items():
        assert (lab2[v].kind, lab2[v].order, lab2[v].n, lab2[v].M, lab2[v].N) == (
            t.kind, t.order, t.n, t.M, t.N)
        assert np.array_equal(lab2[v].to_dense(), t.to_dense())
    assert eval_value_bruteforce(g2, lab2) == eval_value_bruteforce(g, lab)


def test_tensor_sums_reject_tensors_of_unequal_n():
    # vertex (or query tensor) 0 has n = 4, 1 has n = 3: no sum over [n] is defined
    tensors = [DenseTensor.diagonal(np.ones(4), 1), DenseTensor.from_array(np.ones(3))]
    graph = OrderedMultigraph(2, [(0, 1)])
    message = "tensor 1 has n = 3, tensor 0 has n = 4"
    for evaluate in (eval_value_bruteforce, eval_value_contraction):
        with pytest.raises(DimensionError, match=message):
            evaluate(graph, dict(enumerate(tensors)))
    with pytest.raises(DimensionError, match=message):
        bcp_ratio(BcpQuery(orders=[1, 1], ell=1, pi=[0, 0]), tensors)


def test_a_scalar_factor_scales_a_tensor_sum():
    # an order-0 tensor reads no index, so its n = 1 joins a sum over [4]
    scalar = DenseTensor.from_array(2.5)
    factors = [(_dense(2, 4, 43), [0, 1]), (DenseTensor.diagonal(np.arange(1.0, 5.0), 2), [1, 0])]
    want = _assignment_sum(factors, 2)
    for scaled in ([(scalar, [])] + factors, factors + [(scalar, [])]):
        assert common_n([tensor for tensor, _ in scaled]) == 4
        assert _assignment_sum(scaled, 2) == pytest.approx(2.5 * want, rel=1e-12)
        assert _contract(scaled) == pytest.approx(2.5 * want, rel=1e-12)
    assert common_n([scalar]) == 1
    with pytest.raises(DimensionError, match="tensor 2 has n = 3, tensor 1 has n = 4"):
        common_n([scalar, _dense(1, 4, 44), _dense(1, 3, 45)])


def test_common_n_of_no_tensors_is_a_spec_error():
    with pytest.raises(SpecError, match="at least one tensor"):
        common_n([])
    # a composition sum of no tensors maps no slot onto no index: its ell is no count
    with pytest.raises(DimensionError, match="^ell must be an integer >= 1, got 0"):
        BcpQuery(orders=[], ell=0, pi=[])
