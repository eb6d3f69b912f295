"""Exhaustive synthesis used as an independent reference implementation.

The question comes from the same SynthesisProblem the MIP reads: its
effective instance (target and gate set after determinant normalization),
its phase rule, P, the objective, the weights, D and epsilon, so the
reference cannot be asked anything the routes it checks are not.  The
search and its checks share nothing else with the MIP: no model, no row,
no solver.

Minimum-length questions run as a meet-in-the-middle search over deduplicated
product levels: level l holds every matrix reachable with exactly l
non-identity gates and not reachable with fewer.  A length-m query splits
m = l + r, walks the left level, and hash-looks the required right factor up
in the keys of level r; sequences come back by peeling generators against
lower-level key sets, and every answer is re-verified in exact arithmetic
before it is returned.

A level is an array of pointers: member k of level l is a parent in level
l-1 times a generator g, stored as the product index parent * G + g, in
first-occurrence order (parent-major, generator-minor).  A level keeps its
matrices only when they fit the table's byte budget, decided once its keys
are known; otherwise its members are rebuilt from the parent level on
demand, one GEMM per generator.  Level tables are target independent and
cached per gate set, least recently used first out once their stored bytes
(matrices, keys and pointers) pass CACHE_BUDGET_BYTES.

A key is a sketch, not the matrix: 8 complex inner products
s_d(X) = <C_d, X> = tr(C_d^H X) with fixed, seeded unit-norm directions C_d,
rounded at KEY_SCALE and hashed.  Up to a global phase, s is first rotated so
that its first largest entry (magnitudes rounded at KEY_SCALE) is real and
positive, the rule relations.canonical_phase applies to matrix entries.  The
sketch is linear, so no product is formed to key it: <C_d, A g> = <C_d g^H, A>
gives the keys of all children of a parent chunk from one GEMM, and
<C_d, g^H Y> = <g C_d, Y> with Y = A^H T gives the right-factor keys of a
query the same way.  Only hits are formed as matrices.  Two distinct
matrices share a key only if they agree to about 1e-6 along all 8
directions; every hit is still peeled and re-verified against the exact
matrices.

Weighted counts and circuit depth are not monotone in sequence length, so
those objectives share one branch-and-bound depth-first enumeration.  They
differ only in the order children are tried and in the cost step; the depth
step is gates.next_layer, the layering rule formulation.schedule_depth
applies.  Fidelity objectives score whole levels vectorized.

All search modes are exhaustive within the problem's P: a returned optimum
is proven, and "infeasible" means no word of at most P gates answers the
problem.  Exceeding the node budget or time limit raises
OracleInconclusiveError instead of guessing.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, OracleInconclusiveError
from .gates import GateSet, next_layer, sequence_product
from .relations import canonical_phase, equal_matrices

if TYPE_CHECKING:
    from .formulation import SynthesisProblem

#: Rounding scale of the key sketch.  Directions have unit norm, so the sketch
#: carries the entries' accumulated matmul error (~1e-14) without amplifying
#: it, far below the 1e-6 rounding step.
KEY_SCALE = 1e6
#: Number of complex directions in a key sketch.
_SKETCH_DIM = 8
#: Bytes one LevelTables stores; a new level keeps its matrices only if they
#: fit on top of what is stored already.
_MATRIX_BUDGET_BYTES = 800 << 20
#: Total stored_bytes the table cache keeps before evicting the least
#: recently used tables; equal to one table's budget.
CACHE_BUDGET_BYTES = _MATRIX_BUDGET_BYTES
#: Tolerance for the final exact re-verification of a candidate sequence.
VERIFY_TOL = 1e-9
#: Search nodes one exhaustive_synthesize call may visit before it gives up.
NODE_BUDGET = 20_000_000
#: Transient chunk size target in bytes for vectorized expansions.
_CHUNK_BYTES = 120_000_000


def checked_time_limit(value, name: str = "time_limit") -> float | None:
    """A time budget as seconds: None, or a positive finite float.

    Raises ConfigError for NaN, zero, negative, infinite and float-overflowing
    values, so a bad budget fails before any model or table is built.
    """
    if value is None:
        return None
    try:
        seconds = float(value)
    except OverflowError:
        seconds = math.inf
    if not 0.0 < seconds < math.inf:
        raise ConfigError(f"{name} must be a positive, finite number of seconds, "
                          f"got {value!r:.40}")
    return seconds


def _multipliers(count: int) -> np.ndarray:
    rng = np.random.default_rng(0xC0FFEE)
    return (rng.integers(0, 2 ** 62, size=count, dtype=np.uint64) * np.uint64(2)
            + np.uint64(1))


def _directions(n: int) -> np.ndarray:
    """Fixed, seeded (_SKETCH_DIM, n, n) complex directions of unit norm."""
    rng = np.random.default_rng(0x5EED)
    proj = rng.standard_normal((2 * n * n, _SKETCH_DIM))
    proj /= np.linalg.norm(proj, axis=0)
    return np.ascontiguousarray(proj.T).view(complex).reshape(_SKETCH_DIM, n, n)


def _sketch_map(dirs: np.ndarray) -> np.ndarray:
    """Real (2n^2, 2k) matrix M with X.view(float64) @ M equal to the
    float64 view of the k inner products <W_j, X> for dirs W (k, n, n):
    Re <W, X> = sum(Re W Re X + Im W Im X), Im <W, X> = sum(Re W Im X - Im W Re X)."""
    w = dirs.reshape(len(dirs), dirs.shape[1] * dirs.shape[2])  # no -1: k may be 0
    re = np.stack([w.real, w.imag], axis=-1)
    im = np.stack([-w.imag, w.real], axis=-1)
    return np.ascontiguousarray(
        np.stack([re, im], axis=1).reshape(2 * len(w), 2 * w.shape[1]).T)


class _KeySet:
    """Growing set of uint64 keys with vectorized membership tests."""

    def __init__(self) -> None:
        self._base = np.empty(0, dtype=np.uint64)
        self._pending: list[np.ndarray] = []
        self._pending_n = 0

    def consolidate(self) -> None:
        if self._pending:
            self._base = np.unique(np.concatenate([self._base, *self._pending]))
            self._pending = []
            self._pending_n = 0

    def add(self, keys: np.ndarray) -> None:
        if len(keys) == 0:
            return
        self._pending.append(np.unique(keys))
        self._pending_n += len(keys)
        if self._pending_n > max(50_000, len(self._base) // 4):
            self.consolidate()

    @property
    def nbytes(self) -> int:
        return self._base.nbytes + sum(p.nbytes for p in self._pending)

    @staticmethod
    def _in_sorted(arr: np.ndarray, q: np.ndarray) -> np.ndarray:
        if len(arr) == 0:
            return np.zeros(len(q), dtype=bool)
        pos = np.searchsorted(arr, q)
        inside = pos < len(arr)
        out = np.zeros(len(q), dtype=bool)
        out[inside] = arr[pos[inside]] == q[inside]
        return out

    def contains(self, q: np.ndarray) -> np.ndarray:
        m = self._in_sorted(self._base, q)
        for p in self._pending:
            m |= self._in_sorted(p, q)
        return m

    def contains_scalar(self, key: np.uint64) -> bool:
        return bool(self.contains(np.array([key], dtype=np.uint64))[0])


@dataclass
class _Level:
    keys: _KeySet
    src: np.ndarray  # product index parent * G + g of each member, ascending
    count: int
    mats: np.ndarray | None = None  # the members' matrices, or None when pointer-only

    @property
    def nbytes(self) -> int:
        mats = 0 if self.mats is None else self.mats.nbytes
        return self.keys.nbytes + self.src.nbytes + mats


class _Budget:
    def __init__(self, node_budget: int, time_limit: float | None) -> None:
        self.node_budget = node_budget
        self.nodes = 0
        self.deadline = None if time_limit is None else time.perf_counter() + time_limit
        self.t0 = time.perf_counter()

    def charge(self, n: int = 1) -> None:
        self.nodes += n
        if self.nodes > self.node_budget:
            raise OracleInconclusiveError(
                f"node budget {self.node_budget} exhausted after {self.nodes} nodes")
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise OracleInconclusiveError("time limit reached before the search finished")

    @property
    def seconds(self) -> float:
        return time.perf_counter() - self.t0


class LevelTables:
    """Deduplicated product levels of a gate set, built lazily."""

    def __init__(self, gs: GateSet, up_to_phase: bool) -> None:
        self.ni = gs.non_identity_indices()
        mats = gs.matrices()
        self.gen = np.ascontiguousarray(mats[self.ni])
        self.n = n = gs.dim
        self.up_to_phase = up_to_phase
        dirs = _directions(n)
        # sketch maps: of X itself; of every child X @ g, through the
        # directions C_d g^H; of every g^H @ X, through g C_d (one block of
        # directions per generator, in generator order)
        self.key_map = _sketch_map(dirs)
        self.child_map = _sketch_map(
            np.einsum("dij,gkj->gdik", dirs, self.gen.conj()).reshape(-1, n, n))
        self.query_map = _sketch_map(
            np.einsum("gij,djk->gdik", self.gen, dirs).reshape(-1, n, n))
        self.mults = _multipliers(2 * _SKETCH_DIM)
        eye = np.eye(n, dtype=complex)[None, :, :]
        lvl0 = _Level(keys=_KeySet(), src=np.empty(0, dtype=np.int64), count=1, mats=eye)
        lvl0.keys.add(self.keys_of(eye))
        self.levels: list[_Level] = [lvl0]
        row_bytes = max(1, len(self.ni)) * n * n * 16
        self.chunk_rows = max(64, _CHUNK_BYTES // row_bytes)

    @property
    def stored_bytes(self) -> int:
        return sum(lev.nbytes for lev in self.levels)

    @staticmethod
    def _sketch(stack: np.ndarray, sketch_map: np.ndarray) -> np.ndarray:
        """(rows, _SKETCH_DIM) complex sketches of a stack under a sketch map."""
        flat = np.ascontiguousarray(stack, dtype=complex).view(np.float64)
        out = flat.reshape(len(stack), -1) @ sketch_map
        return out.view(complex).reshape(-1, _SKETCH_DIM)

    def _hash(self, sketch: np.ndarray) -> np.ndarray:
        if self.up_to_phase:
            sketch = canonical_phase(sketch[:, None, :])[:, 0, :]
        flat = np.ascontiguousarray(sketch).view(np.float64)
        q = np.round(flat * KEY_SCALE).astype(np.int64).astype(np.uint64)
        return (q * self.mults[None, :]).sum(axis=1, dtype=np.uint64)

    def keys_of(self, stack: np.ndarray) -> np.ndarray:
        return self._hash(self._sketch(stack, self.key_map))

    def key_of_one(self, m: np.ndarray) -> np.uint64:
        return self.keys_of(m[None, :, :])[0]

    def _chunks(self, l: int):
        """Yield (start, mats): the level-l members from index start on, in
        order, each exactly once.  Callers charge the budget for what they
        consume."""
        lev = self.levels[l]
        if lev.mats is not None:
            for i in range(0, len(lev.mats), self.chunk_rows):
                yield i, lev.mats[i:i + self.chunk_rows]
            return
        n, g_count = self.n, len(self.gen)
        for start, parents, lo, hi in self._families(l):
            p, g = np.divmod(lev.src[lo:hi] - start * g_count, g_count)
            out = np.empty((hi - lo, n, n), dtype=complex)
            for gi in range(g_count):
                sel = np.nonzero(g == gi)[0]
                out[sel] = (parents[p[sel]].reshape(-1, n) @ self.gen[gi]).reshape(-1, n, n)
            yield lo, out

    def _parent_chunks(self, l: int):
        """Yield (start, parents): level l-1 in slices of at most chunk_rows."""
        for start, mats in self._chunks(l - 1):
            for i in range(0, len(mats), self.chunk_rows):
                yield start + i, mats[i:i + self.chunk_rows]

    def _families(self, l: int):
        """Yield (start, parents, lo, hi): a parent slice and the level-l
        members lo:hi whose parents lie in it."""
        src, g_count = self.levels[l].src, len(self.gen)
        for start, parents in self._parent_chunks(l):
            lo, hi = np.searchsorted(src, [start * g_count, (start + len(parents)) * g_count])
            if hi > lo:
                yield start, parents, int(lo), int(hi)

    def iter_level_matrices(self, l: int):
        """Yield chunks holding every level-l matrix (reachable in exactly l
        gates, not fewer) once, in member order; a pointer-only level is
        rebuilt from its parent level."""
        for _, mats in self._chunks(l):
            yield mats

    def ensure_level(self, lmax: int, budget: _Budget) -> None:
        n, g_count = self.n, len(self.gen)
        while len(self.levels) <= lmax:
            l = len(self.levels)
            keys = _KeySet()
            srcs = [np.empty(0, dtype=np.int64)]
            for start, parents in self._parent_chunks(l):
                budget.charge(len(parents) * g_count)
                pkeys = self._hash(self._sketch(parents, self.child_map))
                uniq, first = np.unique(pkeys, return_index=True)
                seen = keys.contains(uniq)
                for lower in self.levels:
                    seen |= lower.keys.contains(uniq)
                fresh = np.sort(first[~seen])
                keys.add(pkeys[fresh])
                srcs.append(start * g_count + fresh)
            keys.consolidate()
            src = np.concatenate(srcs)
            lev = _Level(keys=keys, src=src, count=len(src))
            self.levels.append(lev)
            if self.stored_bytes + lev.count * n * n * 16 <= _MATRIX_BUDGET_BYTES:
                mats = np.empty((lev.count, n, n), dtype=complex)
                for lo, chunk in self._chunks(l):
                    mats[lo:lo + len(chunk)] = chunk
                lev.mats = mats

    def left_hits(self, l: int, target: np.ndarray, right_keys: _KeySet,
                  budget: _Budget):
        """Yield (A, A^H @ target) for each level-l member A whose right factor
        has a key in right_keys, in member order.  Keys come from the parents'
        Y = P^H @ target; only hits are formed, as P @ g and g^H @ Y."""
        if l == 0:
            budget.charge(1)
            if right_keys.contains_scalar(self.key_of_one(target)):
                yield np.eye(self.n, dtype=complex), target
            return
        src, g_count = self.levels[l].src, len(self.gen)
        for start, parents, lo, hi in self._families(l):
            budget.charge(hi - lo)
            y = _right_factors(parents, target)
            local = src[lo:hi] - start * g_count
            qkeys = self._hash(self._sketch(y, self.query_map)[local])
            for h in np.nonzero(right_keys.contains(qkeys))[0]:
                p, g = divmod(int(local[h]), g_count)
                yield parents[p] @ self.gen[g], self.gen[g].conj().T @ y[p]

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return equal_matrices(a, b, self.up_to_phase, VERIFY_TOL)

    def peel(self, m: np.ndarray, l: int) -> list[int] | None:
        """Recover some exactly-l-gate sequence realizing matrix m, as positions
        into self.gen, or None when m is not a level-l member."""
        if l == 0:
            return [] if self.equal(m, np.eye(self.n)) else None
        below = self.levels[l - 1].keys
        for gi in range(len(self.gen)):
            rest_m = self.gen[gi].conj().T @ m
            if below.contains_scalar(self.key_of_one(rest_m)):
                rest = self.peel(rest_m, l - 1)
                if rest is not None:
                    return [gi] + rest
        return None


#: Level tables by gate set and phase rule, least recently used first.
_TABLE_CACHE: dict[tuple, LevelTables] = {}


def _tables_for(gs: GateSet, up_to_phase: bool) -> LevelTables:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(gs.matrices()).tobytes())
    digest.update(bytes(gs.non_identity_indices()))
    key = (digest.hexdigest(), up_to_phase)
    tab = _TABLE_CACHE.pop(key, None)
    if tab is None:
        tab = LevelTables(gs, up_to_phase)
    _TABLE_CACHE[key] = tab
    return tab


def _trim_cache(keep: LevelTables) -> None:
    """Evict least recently used tables until the stored bytes of the cache
    fit CACHE_BUDGET_BYTES; `keep` is never evicted.  Runs after each search,
    since searches grow tables."""
    total = sum(t.stored_bytes for t in _TABLE_CACHE.values())
    for key, tab in list(_TABLE_CACHE.items()):
        if total <= CACHE_BUDGET_BYTES:
            break
        if tab is not keep:
            total -= tab.stored_bytes
            del _TABLE_CACHE[key]


def clear_oracle_cache() -> None:
    _TABLE_CACHE.clear()


@dataclass
class OracleResult:
    """Outcome of an exhaustive search; optima are proven."""

    status: str  # "optimal" | "infeasible"
    sequence: list[int] | None  # gate-set indices, first gate leftmost in time
    objective: float | None
    nodes: int
    seconds: float


def _right_factors(chunk: np.ndarray, target: np.ndarray) -> np.ndarray:
    """chunk[c]^H @ target for every c, as one GEMM."""
    n = target.shape[0]
    return (chunk.conj().transpose(0, 2, 1).reshape(-1, n) @ target).reshape(-1, n, n)


def _check_length(tab: LevelTables, target: np.ndarray, m: int,
                  budget: _Budget) -> list[int] | None:
    if m == 0:
        return [] if tab.equal(np.eye(tab.n), target) else None
    l, r = m // 2, m - m // 2
    tab.ensure_level(r, budget)
    for left, right in tab.left_hits(l, target, tab.levels[r].keys, budget):
        left_seq = tab.peel(left, l)
        right_seq = tab.peel(right, r)
        if left_seq is None or right_seq is None:
            continue
        seq = left_seq + right_seq
        if tab.equal(sequence_product(tab.gen[seq], tab.n), target):
            return seq
    return None


def _mitm_min_length(tab: LevelTables, target: np.ndarray, max_length: int,
                     budget: _Budget) -> list[int] | None:
    for m in range(max_length + 1):
        seq = _check_length(tab, target, m, budget)
        if seq is not None:
            return seq
    return None


def _dfs(tab: LevelTables, target: np.ndarray, max_length: int, order: list[int],
         step, budget: _Budget) -> tuple[list[int], float] | None:
    """Least-cost sequence by branch and bound over sequences up to max_length.

    Children are tried in `order`; step(cost, layer, p) gives the cost and
    the current layer after appending generator p.  Costs never decrease
    along a sequence, so a node whose cost reaches the best found is pruned.
    """
    best: tuple[float, list[int]] | None = None

    def rec(prod: np.ndarray, seq: list[int], cost: float, layer: frozenset[int]) -> None:
        nonlocal best
        budget.charge()
        if best is not None and cost >= best[0] - 1e-12:
            return
        if tab.equal(prod, target):
            best = (cost, list(seq))
            return
        if len(seq) == max_length:
            return
        for p in order:
            child_cost, child_layer = step(cost, layer, p)
            seq.append(p)
            rec(prod @ tab.gen[p], seq, child_cost, child_layer)
            seq.pop()

    rec(np.eye(tab.n, dtype=complex), [], 0, frozenset())
    if best is None:
        return None
    return best[1], best[0]


def _best_score(tab: LevelTables, target: np.ndarray, max_length: int, fid: bool,
                budget: _Budget, box: float | None
                ) -> tuple[list[int] | None, float | None]:
    """Best-scoring word of at most max_length gates, (None, None) if none counts.

    The score is |tr(T^dag U)|^2 / n^2 with `fid`, Re tr(T^dag U) / n
    without.  With a `box`, only words whose every Re/Im deviation from the
    target lies within box + VERIFY_TOL count.
    """
    def score(stack: np.ndarray) -> np.ndarray:
        tr = stack.reshape(len(stack), -1) @ target.conj().ravel()
        vals = np.abs(tr) ** 2 / tab.n ** 2 if fid else tr.real / tab.n
        if box is not None:
            dev = stack - target
            worst = np.maximum(np.abs(dev.real).max(axis=(1, 2)),
                               np.abs(dev.imag).max(axis=(1, 2)))
            vals = np.where(worst <= box + VERIFY_TOL, vals, -np.inf)
        return vals

    best_mat = np.eye(tab.n, dtype=complex)
    best_val = float(score(best_mat[None])[0])
    best_level = 0
    for l in range(1, max_length + 1):
        tab.ensure_level(l, budget)
        for chunk in tab.iter_level_matrices(l):
            budget.charge(len(chunk))
            vals = score(chunk)
            k = int(vals.argmax())
            if vals[k] > best_val + 1e-12:
                best_val = float(vals[k])
                best_mat = np.ascontiguousarray(chunk[k])
                best_level = l
    if best_val == -np.inf:
        return None, None
    seq = tab.peel(best_mat, best_level)
    if seq is None:
        raise OracleInconclusiveError("failed to reconstruct the best-scoring sequence")
    return seq, best_val


def exhaustive_synthesize(problem: SynthesisProblem,
                          time_limit: float | None = None) -> OracleResult:
    """Provably optimal answer to `problem` over every word of at most P gates.

    Returns gate-set indices (identity never appears in the sequence).  The
    search reads the problem's effective instance, matched up to a global
    phase when problem.up_to_phase, and, by objective:

    - weighted_gate_count: the weights.  Equal weights run the
      meet-in-the-middle length search, others the branch and bound.
    - depth: D.  The branch and bound finds the least depth over all words,
      so one above D is infeasible, as in the MIP.
    - linearized_fidelity: nothing more; the score is alpha,
      Re tr(T^dag U) / n.
    - exact_fidelity: nothing more; the score is |tr(T^dag U)|^2 / n^2.
    - frobenius_oa: epsilon.  Only words whose Re/Im deviations from the
      target lie in the epsilon-box count, and none there is infeasible.
      Among them the best alpha has the least squared Frobenius error, which
      falls as alpha grows; K, the model's outer approximation of that
      error, is not read.

    `time_limit` is in seconds; None means no limit.  Searching more than
    NODE_BUDGET nodes or past the time limit raises OracleInconclusiveError.
    """
    time_limit = checked_time_limit(time_limit)
    target, gs = problem.effective_instance
    P, objective = problem.P, problem.objective
    tab = _tables_for(gs, problem.up_to_phase)
    budget = _Budget(NODE_BUDGET, time_limit)

    def search() -> tuple[list[int] | None, float | None]:
        if objective == "weighted_gate_count":
            gw = problem.weights[tab.ni]
            if len(gw) == 0 or np.ptp(gw) > 1e-12:
                order = sorted(range(len(tab.gen)), key=lambda p: gw[p])
                return _dfs(tab, target, P, order,
                            lambda c, layer, p: (c + gw[p], layer), budget) or (None, None)
            seq = _mitm_min_length(tab, target, P, budget)
            return seq, None if seq is None else float(gw[0]) * len(seq)
        if objective == "depth":
            supports = [gs[i].support for i in tab.ni]
            found = _dfs(tab, target, P, list(range(len(tab.gen))),
                         lambda d, layer, p: next_layer(d, layer, supports[p]), budget)
            return found if found and found[1] <= problem.D else (None, None)
        return _best_score(tab, target, P, objective == "exact_fidelity", budget,
                           problem.epsilon if objective == "frobenius_oa" else None)

    try:
        seq, obj = search()
    finally:
        _trim_cache(keep=tab)
    if seq is None:
        return OracleResult(status="infeasible", sequence=None, objective=None,
                            nodes=budget.nodes, seconds=budget.seconds)
    return OracleResult(status="optimal", sequence=[tab.ni[p] for p in seq],
                        objective=obj, nodes=budget.nodes, seconds=budget.seconds)


__all__ = [
    "OracleResult", "exhaustive_synthesize", "checked_time_limit",
    "LevelTables", "clear_oracle_cache", "CACHE_BUDGET_BYTES", "KEY_SCALE", "VERIFY_TOL",
]
