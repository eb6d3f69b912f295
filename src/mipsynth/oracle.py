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
m = l + r with l = m // 2, walks the left level, and hash-looks the required
right factor up in the keys of level r; a hit's two words are read off the
members' parent pointers, and every answer is re-verified in exact
arithmetic before it is returned.  Lengths 2l and 2l+1 walk the same left
level, so a query forms the right-factor keys of each left level once, in
member order, and replays them for the second length.

A level is an array of pointers: member k of level l is a parent in level
l-1 times a generator g, stored as the product index parent * G + g, in
first-occurrence order (parent-major, generator-minor), so walking the
pointers down spells the member's word.  A level keeps its matrices only
when they fit the table's byte budget, decided once its keys are known;
otherwise its members are rebuilt from the parent level on demand, one GEMM
per generator.  Level tables are target independent and cached per gate
set, least recently used first out once their stored bytes (matrices, keys,
key-to-member indices and pointers) pass CACHE_BUDGET_BYTES.

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
directions; every hit is still re-verified against the exact matrices.
A level's keys are one sorted uint64 array, built once the level is
complete and searched by bisection, with the member index of each key.

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
import numbers
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

    Raises ConfigError for a bool, a value that is not a real number, and
    NaN, zero, negative, infinite and float-overflowing values, so a bad
    budget fails before any model or table is built.
    """
    if value is None:
        return None
    seconds = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
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


def _in_sorted(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Whether each of q is in the sorted array keys, by bisection."""
    pos = np.searchsorted(keys, q)
    out = np.zeros(len(q), dtype=bool)
    inside = pos < len(keys)
    out[inside] = keys[pos[inside]] == q[inside]
    return out


@dataclass
class _Level:
    keys: np.ndarray  # the members' keys, strictly ascending
    order: np.ndarray  # member index of each key
    src: np.ndarray  # product index parent * G + g of each member, ascending
    mats: np.ndarray | None = None  # the members' matrices, or None when pointer-only

    @property
    def count(self) -> int:
        return len(self.keys)

    @property
    def nbytes(self) -> int:
        mats = 0 if self.mats is None else self.mats.nbytes
        return self.keys.nbytes + self.order.nbytes + self.src.nbytes + mats


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
    """Deduplicated product levels of a gate set, built lazily.

    Level l keeps one pointer per member, src = parent * G + g: the member
    is parent @ gen[g] with parent a member of level l-1, so walking the
    pointers down spells its word (peel).  Its keys are one sorted array,
    and `order` holds the member index of each key.
    """

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
        self.levels: list[_Level] = [
            _Level(keys=self.keys_of(eye), order=np.zeros(1, dtype=np.int64),
                   src=np.empty(0, dtype=np.int64), mats=eye)]
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

    def iter_level_matrices(self, l: int):
        """Yield (start, mats): every level-l matrix (reachable in exactly l
        gates, not fewer) once, in member order, mats holding the members
        from index start on; a pointer-only level is rebuilt from its parent
        level.  Callers charge the budget for what they consume."""
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
        for start, mats in self.iter_level_matrices(l - 1):
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

    def ensure_level(self, lmax: int, budget: _Budget) -> None:
        n, g_count = self.n, len(self.gen)
        while len(self.levels) <= lmax:
            l = len(self.levels)
            keys, srcs = [np.empty(0, dtype=np.uint64)], [np.empty(0, dtype=np.int64)]
            for start, parents in self._parent_chunks(l):
                budget.charge(len(parents) * g_count)
                pkeys = self._hash(self._sketch(parents, self.child_map))
                uniq, first = np.unique(pkeys, return_index=True)
                seen = np.zeros(len(uniq), dtype=bool)
                for lower in self.levels:
                    seen |= _in_sorted(lower.keys, uniq)
                fresh = np.sort(first[~seen])
                keys.append(pkeys[fresh])
                srcs.append(start * g_count + fresh)
            # first occurrences across chunks, so src stays ascending
            ukeys, first = np.unique(np.concatenate(keys), return_index=True)
            members = np.sort(first)
            lev = _Level(keys=ukeys, order=np.searchsorted(members, first),
                         src=np.concatenate(srcs)[members])
            self.levels.append(lev)
            if self.stored_bytes + lev.count * n * n * 16 <= _MATRIX_BUDGET_BYTES:
                mats = np.empty((lev.count, n, n), dtype=complex)
                for lo, chunk in self.iter_level_matrices(l):
                    mats[lo:lo + len(chunk)] = chunk
                lev.mats = mats

    def query_keys(self, l: int, target: np.ndarray, budget: _Budget):
        """Yield (lo, keys): the keys of the right factors A^H @ target of the
        level-l members A from lo on, in member order, charging the budget
        once per chunk.  Keys come from the parents' Y = P^H @ target
        through the query sketch; no member is formed."""
        if l == 0:
            budget.charge(1)
            yield 0, self.keys_of(target[None, :, :])
            return
        src, g_count = self.levels[l].src, len(self.gen)
        for start, parents, lo, hi in self._families(l):
            budget.charge(hi - lo)
            y = _right_factors(parents, target)
            local = src[lo:hi] - start * g_count
            yield lo, self._hash(self._sketch(y, self.query_map)[local])

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return equal_matrices(a, b, self.up_to_phase, VERIFY_TOL)

    def peel(self, l: int, i: int) -> list[int]:
        """The word of member i of level l, as positions into self.gen: its
        src pointers walked down to level 0, the first gate leftmost.  It is
        the lexicographically least l-gate word of the member, since levels
        list members in that order and keep each one's first occurrence."""
        word = []
        for lev in self.levels[l:0:-1]:
            i, g = divmod(int(lev.src[i]), len(self.gen))
            word.append(g)
        return word[::-1]


#: Level tables by gate set and phase rule, least recently used first.
_TABLE_CACHE: dict[tuple, LevelTables] = {}


def _tables_for(gs: GateSet, up_to_phase: bool) -> LevelTables:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(gs.matrices()).tobytes())
    digest.update(np.asarray(gs.non_identity_indices(), dtype=np.int64).tobytes())
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


def _mitm_min_length(tab: LevelTables, target: np.ndarray, max_length: int,
                     budget: _Budget) -> list[int] | None:
    """Shortest word for target of at most max_length gates, or None.

    Lengths 2l and 2l+1 both scan left level l, so each level's query keys
    are formed once, lazily and in member order, and replayed for the
    second length: a length whose hit comes early still stops early.
    """
    if tab.equal(np.eye(tab.n), target):
        return []
    scans = {}  # level -> (query-key chunks formed so far, generator of the rest)

    def left_keys(l: int):
        done, rest = scans.setdefault(l, ([], tab.query_keys(l, target, budget)))
        yield from done
        for chunk in rest:
            done.append(chunk)
            yield chunk

    for m in range(1, max_length + 1):
        l, r = m // 2, m - m // 2
        tab.ensure_level(r, budget)
        right = tab.levels[r]
        for lo, qkeys in left_keys(l):
            for h in np.nonzero(_in_sorted(right.keys, qkeys))[0]:
                k = int(right.order[np.searchsorted(right.keys, qkeys[h])])
                seq = tab.peel(l, lo + int(h)) + tab.peel(r, k)
                if tab.equal(sequence_product(tab.gen[seq], tab.n), target):
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

    best_val = float(score(np.eye(tab.n, dtype=complex)[None])[0])
    best = (0, 0)  # level and member index
    for l in range(1, max_length + 1):
        tab.ensure_level(l, budget)
        for lo, chunk in tab.iter_level_matrices(l):
            budget.charge(len(chunk))
            vals = score(chunk)
            k = int(vals.argmax())
            if vals[k] > best_val + 1e-12:
                best_val = float(vals[k])
                best = (l, lo + k)
    if best_val == -np.inf:
        return None, None
    return tab.peel(*best), best_val


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
