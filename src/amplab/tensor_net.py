"""Ordered-multigraph tensor networks and the combinatorial checkers built
on them: definitional value evaluation, contraction-engine evaluation,
moments in i.i.d. Gaussian, Rademacher or uniform entries by set partitions
weighted with cumulants, composition-ratio bounds for tensor families, and
the colored-cycle component-count inequality.

Every tensor sum is a (tensor, positions) factor list and reads the index
size n off its tensors (``common_n``). One engine, ``_contract``, evaluates
every such sum: network values, composition ratios and each partition term
of a moment. It merges tied labels, keeps diagonal and alternating tensors
structured, and contracts pairwise, so its cost does not grow as n^(indices).
The enumeration of all index assignments, ``_assignment_sum``, is kept only
as the oracle behind ``eval_value_bruteforce``. A network on disk is one JSON
document whose tensors the ``DenseTensor`` constructor rebuilds and validates.

The colored-cycle inequality is checked on a batch of instances in one call,
with one algorithm for a batch of any size, one instance included: labels
are compressed to vertex ids per instance and each color's components come
from one array pass of min-label propagation over the whole batch, so memory
grows with edges plus vertices, whatever the labels.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ensembles import CUMULANT_ORDER, ENTRY_CUMULANTS, _draw_entries
from .exceptions import (BudgetError, DimensionError, NumericError, ParameterError, SpecError,
                         is_integer, require_count)
from .rng import RngStream
from .vecmat import split_index

DENSE_MATERIALIZE_CAP = 64  # structured tensors are never densified above this n
BUDGET_BITS = 30.0  # the brute-force oracle enumerates while indices * log2(n) <= this
ENUM_CHUNK = 1 << 16  # assignments gathered per batch by the brute-force oracle


# ---------------------------------------------------------------------------
# Tensors


@dataclass(frozen=True)
class DenseTensor:
    """Order-k tensor over [n]^k, stored densely or by structural formula.

    kinds: "dense" (values holds the full array), "diagonal" (values holds the
    length-n diagonal; entries vanish off the repeated-index line, so a
    diagonal of ones is the identity), "alternating" (the even-order
    matrix-product pattern on vec(R^(M x N)), prefactor N^(1 - k/2)).

    The index size n is read off what defines the tensor, never stored beside
    it: the side of the dense values (1 at order 0), the diagonal's length,
    or M * N. A dense order is read off the values too, ``np.ndim(values)``.
    """

    order: Optional[int] = None
    kind: str = "dense"
    values: Optional[np.ndarray] = None
    M: int = 0
    N: int = 0

    def __post_init__(self):
        """SpecError on an unknown kind or an odd alternating order.
        DimensionError unless what defines n is there and fits the order: an
        alternating tensor's order, M and N are counts (``require_count``); a
        dense tensor's values are a non-empty array of equal sides, any stated
        order their ndim; a diagonal's order is a count and its values a
        non-empty vector. Values of None are refused at every order, others kept as float64."""
        if self.values is not None:
            object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.kind == "alternating":
            for name in ("order", "M", "N"):
                require_count(getattr(self, name), name, DimensionError)
            if self.order % 2:
                raise SpecError("alternating tensors exist for even order k >= 2")
            return
        sides = {"dense": np.ndim(self.values), "diagonal": 1}.get(self.kind)
        if sides is None:
            raise SpecError(f"unknown tensor kind {self.kind!r}")
        if self.kind == "diagonal":
            require_count(self.order, "order", DimensionError)
        elif self.order is None:
            object.__setattr__(self, "order", sides)
        elif not is_integer(self.order) or self.order != sides:
            raise DimensionError(f"order must be {sides}, the values' ndim, got {self.order!r}")
        shape = None if self.values is None else np.shape(self.values)
        if shape != (self.n,) * sides or self.n == 0:
            raise DimensionError(f"{self.kind} tensor of order {self.order} needs non-empty "
                                 f"values of shape (n,) * {sides}, got {shape}")

    @property
    def n(self) -> int:
        if self.kind == "alternating":
            return self.M * self.N
        return np.shape(self.values)[0] if np.ndim(self.values) else 1

    @classmethod
    def from_array(cls, arr) -> "DenseTensor":
        return cls(values=arr)

    @classmethod
    def diagonal(cls, values, order: int) -> "DenseTensor":
        return cls(order=order, kind="diagonal", values=values)

    @classmethod
    def alternating(cls, k: int, M: int, N: int) -> "DenseTensor":
        return cls(order=k, kind="alternating", M=M, N=N)

    def gather(self, idx: Sequence[np.ndarray]) -> np.ndarray:
        """Entries at a batch of index tuples (idx holds one array per slot)."""
        if len(idx) != self.order:
            raise DimensionError(f"expected {self.order} index arrays, got {len(idx)}")
        if self.kind == "dense":
            return self.values[tuple(idx)]
        if self.kind == "diagonal":
            eq = np.ones_like(idx[0], dtype=bool)
            for other in idx[1:]:
                eq &= other == idx[0]
            return np.where(eq, self.values[idx[0]], 0.0)
        # alternating: constraints alternate between the column and row labels
        # of the (row, col) pairs, with wraparound to the first slot
        k = self.order
        rows, cols = zip(*(split_index(i, self.M) for i in idx))
        out = np.full(np.shape(idx[0]), float(self.N) ** (1.0 - k / 2.0))
        for p in range(k):
            q = (p + 1) % k
            if p % 2 == 0:
                out = out * (cols[p] == cols[q])
            else:
                out = out * (rows[p] == rows[q])
        return out

    def to_dense(self) -> np.ndarray:
        if self.kind == "dense":
            return self.values
        if self.n > DENSE_MATERIALIZE_CAP:
            raise BudgetError(
                f"refusing to materialize structured tensor with n={self.n} > "
                f"{DENSE_MATERIALIZE_CAP}"
            )
        grids = np.meshgrid(*([np.arange(self.n)] * self.order), indexing="ij")
        return self.gather([g.ravel() for g in grids]).reshape((self.n,) * self.order)


# ---------------------------------------------------------------------------
# Ordered multigraphs and labelings


@dataclass
class OrderedMultigraph:
    """Undirected multigraph, no self-loops or isolated vertices, with a
    declared ordering of the edges incident to each vertex; an incidence of
    None orders each vertex's edges by edge id.

    Construction checks the graph: DimensionError unless num_vertices is a
    count (``require_count``), SpecError on a self-loop, an edge to a missing
    vertex, an isolated vertex, or an incidence that does not list every edge
    at both of its ends and nowhere else."""

    num_vertices: int
    edges: List[Tuple[int, int]]
    incidence: Optional[List[List[int]]] = None

    def __post_init__(self):
        self.num_vertices = require_count(self.num_vertices, "num_vertices", DimensionError)
        self.edges = [tuple(e) for e in self.edges]
        for eid, (a, b) in enumerate(self.edges):
            if a == b:
                raise SpecError(f"edge {eid} is a self-loop")
            if not (0 <= a < self.num_vertices and 0 <= b < self.num_vertices):
                raise SpecError(f"edge {eid} references a missing vertex")
        if self.incidence is None:
            self.incidence = [[eid for eid, edge in enumerate(self.edges) if v in edge]
                              for v in range(self.num_vertices)]
        if len(self.incidence) != self.num_vertices:
            raise SpecError("incidence list length must equal vertex count")
        counts = [0] * len(self.edges)
        for v, order in enumerate(self.incidence):
            if not order:
                raise SpecError(f"vertex {v} is isolated")
            for eid in order:
                if not 0 <= eid < len(self.edges) or v not in self.edges[eid]:
                    raise SpecError(f"vertex {v} lists non-incident edge {eid}")
                counts[eid] += 1
        if any(c != 2 for c in counts):
            raise SpecError("every edge must appear in exactly two vertex orderings")

    def degree(self, v: int) -> int:
        return len(self.incidence[v])


TensorLabeling = Dict[int, DenseTensor]


def common_n(tensors: Sequence[DenseTensor]) -> int:
    """The index size n shared by tensors (a network's in vertex order).
    An order-0 tensor reads no index, so its n is not compared; n is 1 when
    every tensor has order 0. DimensionError names the first tensor whose n
    differs from that of the first tensor of order >= 1, SpecError when
    there are no tensors."""
    if not tensors:
        raise SpecError("a tensor sum needs at least one tensor")
    indexed = [(i, tensor.n) for i, tensor in enumerate(tensors) if tensor.order > 0]
    first, n = indexed[0] if indexed else (0, 1)
    for i, size in indexed:
        if size != n:
            raise DimensionError(f"tensor {i} has n = {size}, tensor {first} has n = {n}")
    return n


def _factors(graph: OrderedMultigraph, labeling: TensorLabeling):
    """The network's (tensor, positions) factor list: vertex v's tensor reads
    the edge indices in v's order. SpecError on a missing label or an order
    that is not the vertex's degree."""
    for v in range(graph.num_vertices):
        if v not in labeling:
            raise SpecError(f"vertex {v} has no tensor label")
        if labeling[v].order != graph.degree(v):
            raise SpecError(
                f"vertex {v}: tensor order {labeling[v].order} != degree {graph.degree(v)}"
            )
    return [(labeling[v], graph.incidence[v]) for v in range(graph.num_vertices)]


def _assignment_sum(factors, num_indices: int) -> float:
    """The oracle for ``_contract``: the sum over all assignments in
    [n]^num_indices of the product of the factors' entries; each factor is a
    (tensor, positions) pair whose slot p reads index positions[p], and n is
    ``common_n`` of the tensors.
    Assignments are enumerated in lexicographic order, ENUM_CHUNK at a time;
    BudgetError when num_indices * log2(n) exceeds BUDGET_BITS."""
    n = common_n([tensor for tensor, _ in factors])
    bits = num_indices * np.log2(max(n, 2))
    if bits > BUDGET_BITS:
        raise BudgetError(
            f"enumeration over {num_indices} indices of size {n} needs "
            f"{bits:.1f} bits > budget {BUDGET_BITS}"
        )
    total = 0.0
    count = n**num_indices
    for start in range(0, count, ENUM_CHUNK):
        assign = np.unravel_index(np.arange(start, min(start + ENUM_CHUNK, count)),
                                  (n,) * num_indices)
        prod = None
        for tensor, positions in factors:
            vals = tensor.gather([assign[i] for i in positions])
            prod = vals if prod is None else prod * vals
        total += float(prod.sum())
    return total


def eval_value_bruteforce(graph: OrderedMultigraph, labeling: TensorLabeling) -> float:
    """Definitional value: sum over all edge-index assignments of the product
    of labeled tensor entries, indices read in each vertex's edge order,
    enumerated; BudgetError past BUDGET_BITS."""
    return _assignment_sum(_factors(graph, labeling), len(graph.edges))


def eval_value_contraction(graph: OrderedMultigraph, labeling: TensorLabeling) -> float:
    """The brute-force value of the network, by the contraction engine
    ``_contract``: no bound on the number of edges, and structured tensors
    are never densified."""
    try:
        return _contract(_factors(graph, labeling))
    except MemoryError as exc:  # pragma: no cover - depends on host memory
        raise NumericError("contraction intermediates exceeded memory") from exc


def _einsum(terms, keep):
    """One einsum over (array, labels) terms, summing every label not in keep.
    Labels are renumbered from 0 for the call, so numpy's cap of 52 labels
    bounds one step, not the whole sum."""
    ids: Dict[object, int] = {}
    operands = []
    for array, labels in terms:
        operands += [array, [ids.setdefault(label, len(ids)) for label in labels]]
    return np.einsum(*operands, [ids[label] for label in keep])


def _merge_labels(groups) -> Dict[object, object]:
    """Each label of the groups -> one label of its merged group, where groups
    that share a label, directly or through a chain of groups, merge."""
    parent: Dict[object, object] = {}

    def root(label):
        while parent.setdefault(label, label) != label:
            label = parent[label]
        return label

    for group in groups:
        first = root(group[0])
        for label in group[1:]:
            parent[root(label)] = first
    return {label: root(label) for label in parent}


def _contract(factors) -> float:
    """The value ``_assignment_sum`` enumerates, the sum over the indices the
    (tensor, positions) factors read, computed without enumerating them; n
    is ``common_n`` of the tensors.

    First, labels that must carry one index are merged (``_merge_labels``):
    all slots of a diagonal, which becomes a vector on the merged label, and
    the row or column halves that an alternating tensor ties. Each slot of an
    alternating tensor reads its index through a one-hot n x M x N splitter
    S[i, r, c] = [i == r + c * M], so the tensor itself is the scalar
    N^(1 - k/2) and is never densified. Then each term is reduced on its own
    (repeated labels to the diagonal, labels no other term reads summed out),
    and the terms are contracted pairwise, each step taking the pair with the
    smallest result among the pairs that share a label."""
    n = common_n([tensor for tensor, _ in factors])
    scale = 1.0
    size: Dict[object, int] = {}  # label -> dimension
    ties = []  # groups of labels that carry one index
    terms = []  # (array, labels)
    for f, (tensor, positions) in enumerate(factors):
        size.update(dict.fromkeys(positions, n))
        if tensor.kind == "dense":
            terms.append((tensor.values, positions))
        elif tensor.kind == "diagonal":
            ties.append(positions)
            terms.append((tensor.values, [positions[0]]))
        else:  # alternating
            k = tensor.order
            scale *= float(tensor.N) ** (1.0 - k / 2.0)
            split = np.eye(n).reshape(n, tensor.M, tensor.N, order="F")
            rows = [(f, p, "row") for p in range(k)]
            cols = [(f, p, "col") for p in range(k)]
            size.update(dict.fromkeys(rows, tensor.M))
            size.update(dict.fromkeys(cols, tensor.N))
            for p in range(k):
                terms.append((split, [positions[p], rows[p], cols[p]]))
                # even slots share their column with the next, odd slots their row
                half = cols if p % 2 == 0 else rows
                ties.append([half[p], half[(p + 1) % k]])
    merged = _merge_labels(ties)
    terms = [(array, [merged.get(label, label) for label in labels]) for array, labels in terms]

    def holders():
        out: Dict[object, List[int]] = {}
        for t, (_, labels) in enumerate(terms):
            for label in dict.fromkeys(labels):
                out.setdefault(label, []).append(t)
        return out

    def kept(group, held):
        """The labels of the group's terms that a term outside it reads."""
        labels = dict.fromkeys(label for t in group for label in terms[t][1])
        return [label for label in labels if any(t not in group for t in held[label])]

    held = holders()
    for t, (_, labels) in enumerate(terms):
        keep = kept((t,), held)
        if keep != labels:
            terms[t] = (_einsum([terms[t]], keep), keep)
    while len(terms) > 1:
        held = holders()
        pairs = {pair for ts in held.values() for pair in itertools.combinations(ts, 2)}
        a, b = min(sorted(pairs) or [(0, 1)],
                   key=lambda pair: math.prod(size[label] for label in kept(pair, held)))
        keep = kept((a, b), held)
        merged = (_einsum([terms[a], terms[b]], keep), keep)
        terms = [term for t, term in enumerate(terms) if t not in (a, b)] + [merged]
    return scale * float(terms[0][0])


# ---------------------------------------------------------------------------
# Moments of i.i.d. entries


def _partitions(block: Tuple[int, ...], sizes: Sequence[int]):
    """Set partitions of a tuple into parts with sizes in sizes; for sizes
    (2,), the perfect matchings, first element paired in index order."""
    if not block:
        yield ()
        return
    head, rest = block[0], block[1:]
    for size in sizes:
        for partners in itertools.combinations(range(len(rest)), size - 1):
            part = (head, *(rest[i] for i in partners))
            left = tuple(x for i, x in enumerate(rest) if i not in partners)
            for sub in _partitions(left, sizes):
                yield (part,) + sub


def wick_expectation(tensor: DenseTensor, sigma: Sequence[int],
                     law: str = "gaussian") -> float:
    """E T[xi_(sigma(1)), ..., xi_(sigma(d))] for i.i.d. vectors xi_1, xi_2, ...
    with i.i.d. standardized entries of law (one of ``ensembles.ENTRY_DISTS``),
    by the moment-cumulant formula: the sum over set partitions of each stream
    block of sigma into parts B with kappa_|B| != 0 (so no singletons) of
    prod kappa_|B| times the tensor summed with each part's slots tied to one
    index. For the Gaussian only pairs remain: Wick's rule.

    Each partition term is one ``_contract`` of the tensor with its slots
    tied. Returns exactly 0 when some stream appears an odd number of times;
    ParameterError when one fills more slots than the law's cumulant table.
    """
    d = tensor.order
    if len(sigma) != d:
        raise DimensionError("sigma must assign a stream to each tensor slot")
    if law not in ENTRY_CUMULANTS:
        raise SpecError(f"unknown entry distribution {law!r}")
    blocks = [tuple(p for p in range(d) if sigma[p] == s) for s in dict.fromkeys(sigma)]
    if law != "gaussian" and max(map(len, blocks), default=0) > CUMULANT_ORDER:
        raise ParameterError(f"{law} cumulants are tabulated through order {CUMULANT_ORDER}")
    kappa = ENTRY_CUMULANTS[law]
    sizes = [k for k in sorted(kappa) if kappa[k] != 0.0]
    total = 0.0
    for combo in itertools.product(*(list(_partitions(b, sizes)) for b in blocks)):
        parts = [part for block_parts in combo for part in block_parts]
        slot_of = {p: free for free, part in enumerate(parts) for p in part}
        weight = math.prod(kappa[len(part)] for part in parts)
        total += weight * _contract([(tensor, [slot_of[p] for p in range(d)])])
    return total


def wick_expectation_mc(
    tensor: DenseTensor,
    sigma: Sequence[int],
    samples: int,
    rng: RngStream,
    chunk: int = 1 << 14,
    law: str = "gaussian",
) -> Tuple[float, float]:
    """Monte-Carlo estimate of the same expectation under law.

    Returns (mean, standard error) over the requested number of samples.

    Draw order (the reproducibility contract): samples are taken in chunks
    of ``chunk`` (the last one partial); within a chunk of b samples, each
    stream in ``sorted(set(sigma))`` draws ``_draw_entries(law, (b, n), gen)``
    (for the Gaussian ``standard_normal((b, n))``, n = tensor.n) from
    ``gen = rng.generator()``.

    The kernel keeps the sample axis last: the slots 0..d//2-1 form one
    (n^(d//2), b) outer product, a single matmul contracts it with the
    tensor, and the remaining slots are summed out one at a time, last slot
    first, so no Kronecker row of the right half is ever formed.
    """
    d, n = tensor.order, tensor.n
    if len(sigma) != d:
        raise DimensionError("sigma must assign a stream to each tensor slot")
    samples = require_count(samples, "samples", ParameterError)
    chunk = require_count(chunk, "chunk", ParameterError)
    streams = sorted(set(sigma))
    d1 = d // 2
    flat_t = tensor.to_dense().reshape(n**d1, n ** (d - d1)).T
    gen = rng.generator()
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        draws = {s: np.ascontiguousarray(_draw_entries(law, (b, n), gen).T) for s in streams}
        left = np.ones((1, b))
        for p in range(d1):
            left = (left[:, None, :] * draws[sigma[p]]).reshape(-1, b)
        acc = flat_t @ left
        for p in range(d - 1, d1 - 1, -1):
            acc = np.einsum("ikb,kb->ib", acc.reshape(-1, n, b), draws[sigma[p]])
        vals = acc[0]
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    return mean, float(np.sqrt(var / samples))


# ---------------------------------------------------------------------------
# Bounded composition queries


@dataclass
class BcpQuery:
    """Index pattern of a composition sum: m tensors of the given orders whose
    slots are mapped onto ell shared indices by the surjection pi."""

    orders: List[int]
    ell: int
    pi: List[int]  # length sum(orders); values in {0, ..., ell-1}

    def __post_init__(self):
        for i, k in enumerate(self.orders):
            require_count(k, f"orders[{i}]", DimensionError)
        require_count(self.ell, "ell", DimensionError)
        if len(self.pi) != sum(self.orders):
            raise SpecError("pi must map every tensor slot")
        if set(self.pi) != set(range(self.ell)):
            raise SpecError("pi must be surjective onto the index set")

    @property
    def m(self) -> int:
        return len(self.orders)

    def slot_ranges(self):
        out = []
        start = 0
        for k in self.orders:
            out.append(range(start, start + k))
            start += k
        return out


def validate_bcp_query(query: BcpQuery) -> dict:
    """Report whether each index has even multiplicity and whether the
    tensor-index incidence pattern is connected."""
    counts = np.bincount(query.pi, minlength=query.ell)
    even = bool(np.all(counts % 2 == 0))
    # the tensors are connected when the index sets they read merge into one
    merged = _merge_labels([[query.pi[s] for s in slots] for slots in query.slot_ranges()])
    return {"even_multiplicity": even, "connected": len(set(merged.values())) == 1}


def bcp_ratio(query: BcpQuery, tensors: Sequence[DenseTensor]) -> float:
    """(1/n) |sum over shared indices of the product of tensor entries|, n
    the tensors' common size, by ``_contract``: no enumeration budget, and
    diagonal or alternating tensors are never densified, so n may exceed
    ``DENSE_MATERIALIZE_CAP``."""
    if len(tensors) != query.m:
        raise SpecError("tensor count must match the query")
    for t, k in zip(tensors, query.orders):
        if t.order != k:
            raise DimensionError(f"tensor order {t.order} != declared {k}")
    factors = [(tensor, [query.pi[s] for s in slots])
               for tensor, slots in zip(tensors, query.slot_ranges())]
    return abs(_contract(factors)) / tensors[0].n


# ---------------------------------------------------------------------------
# Colored alternating-cycle multigraphs


def _first_non_integer(values) -> Optional[int]:
    """Position of the first value that is not an integer (``is_integer``),
    or None; the rule is asked once per type, not once per value."""
    if all(map(is_integer, dict(zip(map(type, values), values)).values())):
        return None
    return next(i for i, value in enumerate(values) if not is_integer(value))


def _component_labels(edges, num_vertices: int) -> np.ndarray:
    """A label per vertex of the graph whose edges are the (a[i], b[i]) of
    each (a, b) in edges, equal on each component and a vertex of it, the
    one vertex v with label v: min-label propagation along the edges with
    pointer jumping, until no label moves. A label only falls and stays a
    vertex of its component."""
    label = np.arange(num_vertices)
    while True:
        new = label.copy()
        for a, b in edges:
            low = np.minimum(label[a], label[b])
            np.minimum.at(new, a, low)
            np.minimum.at(new, b, low)
        new = new[new]
        if not np.count_nonzero(new != label):
            return label
        label = new


def _vertex_ids(cycles, edge_owner: np.ndarray, end: np.ndarray, where):
    """Per label in the cycles laid end to end (cycle j ending before
    end[j]), the id of its vertex, the (instance, label) pairs numbered in
    order; and per id, its instance. edge_owner holds each label's instance.
    SpecError on a label that is not an integer, or on a vertex that occurs
    an odd number of times: each occurrence ends one red and one blue edge,
    so both color degrees of a vertex are its number of occurrences."""
    flat = list(itertools.chain.from_iterable(cycles))
    bad = _first_non_integer(flat)
    if bad is not None:
        raise SpecError(f"{where(np.searchsorted(end, bad, side='right'))}: "
                        f"vertex label {flat[bad]!r} is not an integer")
    code = {v: i for i, v in enumerate(dict.fromkeys(flat))}
    key = edge_owner * len(code)
    key += np.fromiter(map(code.__getitem__, flat), dtype=key.dtype, count=key.size)
    _, first, vertex = np.unique(key, return_index=True, return_inverse=True)
    degree = np.bincount(vertex)
    odd = np.flatnonzero(degree % 2)
    if odd.size:
        at = first[odd[0]]
        raise SpecError(f"instance {edge_owner[at]}: vertex {flat[at]!r} has red and blue "
                        f"degree {degree[odd[0]]}; need even")
    return vertex, edge_owner[first]


def alt_cycle_component_bound_check(cycles: Sequence[Sequence[int]],
                                    instance: Optional[Sequence[int]] = None) -> dict:
    """Check c(G_R) + c(G_B) <= |E|/2 - m + 2 c(G) on a batch of instances,
    each a union of m even-length cycles whose edges alternate red/blue
    (first edge red).

    Each cycle is a sequence of integer vertex labels v_1, ..., v_L (L even,
    self-loop steps allowed); edge i joins v_i to v_(i+1) with wraparound.
    Cycle j belongs to instance ``instance[j]``: the instances are numbered
    0, 1, ..., each needs a cycle, and a label names a vertex of its own
    instance only. Every vertex must have even degree in each color. With
    instance None the cycles form one instance, a batch of one, and the
    report's entries are scalars; otherwise each is an array over instances.
    Both sides of the inequality are integers, since |E| is even.

    One algorithm for any batch: the (instance, label) pairs are numbered
    (``_vertex_ids``), so memory grows with edges plus vertices; each
    vertex's color degrees are its occurrences, and the components of G_R,
    G_B and G are each one ``_component_labels`` pass over the whole batch,
    where no edge joins two instances. SpecError, naming the instance, on an
    instance with no cycles, an empty or odd cycle or a label that is not an
    integer (these also name the cycle, numbered within its instance), or an
    odd color degree. A zero color degree cannot occur.
    """
    if not cycles:
        raise SpecError("need at least one cycle")
    num = len(cycles)
    single = instance is None
    if single:
        instance = np.zeros(num, dtype=np.intp)
    ids = np.asarray(instance)
    if (ids.shape != (num,) or _first_non_integer(instance) is not None
            or not 0 <= ids.min() <= ids.max() < num):
        raise SpecError(f"instance must give each of the {num} cycles an integer in 0..{num - 1}")
    owner = ids.astype(np.intp)
    num_cycles = np.bincount(owner)
    if num_cycles.min() == 0:
        raise SpecError(f"instance {np.argmin(num_cycles)} has no cycles; need at least one")

    def where(j):
        return f"instance {owner[j]}, cycle {np.count_nonzero(owner[:j] == owner[j])}"

    lengths = np.fromiter(map(len, cycles), dtype=np.intp, count=num)
    odd = np.flatnonzero((lengths == 0) | (lengths % 2 == 1))
    if odd.size:
        raise SpecError(f"{where(odd[0])} has length {lengths[odd[0]]}; need nonzero even")
    end = np.cumsum(lengths)
    edge_owner = np.repeat(owner, lengths)
    vertex, vertex_owner = _vertex_ids(cycles, edge_owner, end, where)

    # edge i joins label i to the next label of its cycle; every cycle
    # starts at an even position, so the red edges are the even i
    following = np.arange(1, end[-1] + 1)
    following[end - 1] = end - lengths
    red = (vertex[0::2], vertex[1::2])
    blue = (vertex[1::2], vertex[following[1::2]])

    def components(*edges):
        roots = _component_labels(edges, vertex_owner.size) == np.arange(vertex_owner.size)
        return np.bincount(vertex_owner[roots], minlength=num_cycles.size)

    c_red, c_blue, c_all = components(red), components(blue), components(red, blue)
    half_edges = np.bincount(edge_owner[0::2], minlength=num_cycles.size)  # red edges
    lhs = c_red + c_blue
    rhs = half_edges - num_cycles + 2 * c_all
    report = {
        "c_red": c_red,
        "c_blue": c_blue,
        "c_graph": c_all,
        "num_edges": 2 * half_edges,
        "num_cycles": num_cycles,
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs <= rhs,
    }
    if single:
        return {key: value[0].item() for key, value in report.items()}
    return report


# ---------------------------------------------------------------------------
# JSON serialization of networks


def save_network(path: str, graph: OrderedMultigraph, labeling: TensorLabeling):
    """One JSON document ``{"edges": [[a, b], ...], "incidence": [[edge ids
    of vertex v in order], ...], "tensors": [...]}``, vertex v's tensor as
    ``{"kind", "order"}`` plus ``"values"`` (nested lists when dense, the
    diagonal when diagonal) or ``"M", "N"`` (alternating). Floats are written
    with repr, so they load back bitwise; n is the length of the values."""
    tensors = []
    for tensor, _ in _factors(graph, labeling):
        doc = {"kind": tensor.kind, "order": tensor.order}
        if tensor.kind == "alternating":
            doc.update(M=tensor.M, N=tensor.N)
        else:
            doc["values"] = tensor.values.tolist()
        tensors.append(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"edges": graph.edges, "incidence": graph.incidence, "tensors": tensors}, fh)


def load_network(path: str) -> Tuple[OrderedMultigraph, TensorLabeling]:
    """Read a network written by ``save_network``; vertex v carries the v-th
    tensor, ``DenseTensor(**fields)``. A file that cannot be read, is not
    such a JSON document, or whose graph, tensors or their n fail validation
    raises SpecError naming path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        labeling = dict(enumerate(DenseTensor(**t) for t in doc["tensors"]))
        graph = OrderedMultigraph(len(labeling), doc["edges"], doc["incidence"])
        common_n([tensor for tensor, _ in _factors(graph, labeling)])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise SpecError(f"cannot read network file {path}: {exc}") from exc
    return graph, labeling
