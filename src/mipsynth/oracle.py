"""Exhaustive synthesis used as an independent reference implementation.

The question comes from the same SynthesisProblem the MIP reads: its
effective instance (target and gate set after determinant normalization),
its phase rule, P, the objective, the weights, D and epsilon, so the
reference cannot be asked anything the routes it checks are not.  The
search and its checks share nothing else with the MIP: no model, no row,
no solver.

Target objectives run one meet-in-the-middle search over product levels
of an alphabet whose letters carry costs: the non-identity gates at their
weights, or, for depth, the layers (gates on disjoint qubits) at their gate
counts.  Level l holds products of l letters, each once, at its cheapest
occurrence, and none that a lower level holds at no more cost.  A length-m
query splits m = l + r with l = m // 2, walks the left level, and
hash-looks the required right factor up in the keys of level r; hits are
tried cheapest first, their words read off the members' parent pointers
and re-verified in exact arithmetic.  The search is exact: halve a cheapest
word, shortest among the cheapest, at l; were a half's product held more
cheaply by its level, or by a lower one at no more cost, the word could be
made cheaper or shorter, so both halves are members.

A level is an array of parent pointers (LevelTables).  It keeps its
matrices only when they fit the table's byte budget; otherwise its members
are rebuilt from the parent level on demand, one GEMM per letter.  Level
tables are target independent and cached per alphabet, least recently used
first out once their stored bytes pass CACHE_BUDGET_BYTES.

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

The least depth is the least d whose cheapest word of at most d layers has
at most P gates.  A gate on no qubit is a pure phase: it takes no layer, so
in exact mode each scalar the pure phases reach shifts the target, and its
fewest gates come off P.  Fidelity objectives score whole levels vectorized.

All search modes are exhaustive within the problem's P: a returned optimum
is proven, and "infeasible" means no word of at most P gates answers the
problem.  Exceeding the node budget or time limit raises
OracleInconclusiveError instead of guessing.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, OracleInconclusiveError
from .gates import GateSet, sequence_product
from .relations import WEIGHT_TOL, canonical_phase, equal_matrices

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
    if not len(keys):
        return np.zeros(len(q), dtype=bool)
    return keys[np.searchsorted(keys, q).clip(max=len(keys) - 1)] == q


def _cheapest(keys: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys, ascending, and the index of each one's cheapest occurrence,
    the first among equal costs (under equal costs, np.unique's return_index)."""
    perm = np.lexsort((cost, keys))  # stable: by key, then cost, then index
    keys = keys[perm]
    first = np.r_[True, keys[1:] != keys[:-1]][:len(keys)]
    return keys[first], perm[first]


@dataclass
class _Level:
    keys: np.ndarray  # the members' keys, strictly ascending
    order: np.ndarray  # member index of each key
    src: np.ndarray  # product index parent * G + g of each member, ascending
    cost: np.ndarray  # the members' costs
    mats: np.ndarray | None = None  # the members' matrices, or None when pointer-only

    @property
    def count(self) -> int:
        return len(self.keys)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in vars(self).values() if a is not None)

    def members(self, q: np.ndarray) -> np.ndarray:
        """Member index of each key of q, -1 where the level does not hold it."""
        hit = _in_sorted(self.keys, q)
        out = np.full(len(q), -1)
        out[hit] = self.order[np.searchsorted(self.keys, q[hit])]
        return out


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
    """Deduplicated product levels of letters with costs, built lazily.

    Level l keeps one pointer per member, src = parent * G + g: the member
    is parent @ gen[g] at the parent's cost plus costs[g], with parent a
    member of level l-1, so walking the pointers down spells its word
    (peel).  Its keys are one sorted array, and `order` holds the member
    index of each key.
    """

    def __init__(self, letters: np.ndarray, costs: np.ndarray, up_to_phase: bool) -> None:
        self.gen = np.ascontiguousarray(letters, dtype=complex)
        self.costs = np.asarray(costs, dtype=float)
        self.n = n = self.gen.shape[1]
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
                   src=np.empty(0, dtype=np.int64), cost=np.zeros(1), mats=eye)]
        row_bytes = max(1, len(self.gen)) * n * n * 16
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
        """Yield (start, mats): every level-l member's matrix once, in member
        order, mats holding the members from index start on; a pointer-only
        level is rebuilt from its parent level.  Callers charge the budget
        for what they consume."""
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
            parts = [(np.empty(0, dtype=np.uint64), np.empty(0), np.empty(0, dtype=np.int64))]
            for start, parents in self._parent_chunks(l):
                budget.charge(len(parents) * g_count)
                pkeys = self._hash(self._sketch(parents, self.child_map))
                pcost = (self.levels[l - 1].cost[start:start + len(parents), None]
                         + self.costs).ravel()
                uniq, first = _cheapest(pkeys, pcost)
                fresh, limit = np.ones(len(uniq), dtype=bool), pcost[first] + WEIGHT_TOL
                for lower in self.levels:  # none is empty while level l-1 has members
                    k = lower.members(uniq)
                    fresh &= (k < 0) | (lower.cost[k] > limit)
                fresh = np.sort(first[fresh])
                parts.append((pkeys[fresh], pcost[fresh], start * g_count + fresh))
            keys, costs, srcs = (np.concatenate(a) for a in zip(*parts))
            # cheapest first occurrences across chunks, so src stays ascending
            ukeys, first = _cheapest(keys, costs)
            members = np.sort(first)
            lev = _Level(keys=ukeys, order=np.searchsorted(members, first),
                         src=srcs[members], cost=costs[members])
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
        """Member i of level l spelled as positions into self.gen, first letter
        leftmost, by walking its src pointers down; levels keep first occurrences,
        so under equal costs it is the member's lexicographically least word."""
        word = []
        for lev in self.levels[l:0:-1]:
            i, g = divmod(int(lev.src[i]), len(self.gen))
            word.append(g)
        return word[::-1]


#: Level tables by alphabet and phase rule, least recently used first.
_TABLE_CACHE: dict[tuple, LevelTables] = {}


def _tables_for(letters: np.ndarray, costs: np.ndarray, up_to_phase: bool) -> LevelTables:
    blob = (np.ascontiguousarray(letters, dtype=complex).tobytes()
            + np.asarray(costs, dtype=float).tobytes())
    # the shape too: empty stacks of every dimension hash alike
    key = (hashlib.blake2b(blob, digest_size=16).hexdigest(), letters.shape, up_to_phase)
    tab = _TABLE_CACHE.pop(key, None)
    if tab is None:
        tab = LevelTables(letters, costs, up_to_phase)
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


def _mitm(tab: LevelTables, target: np.ndarray, max_length: int,
         budget: _Budget) -> tuple[list[int], float] | None:
    """Cheapest word for target of at most max_length letters, with its cost,
    or None.  Lengths 2l and 2l+1 replay one lazy scan of left level l.  A word
    of length m costs at least m times the cheapest letter: a hit at that
    floor ends the search, as does a length whose floor reaches the best.
    Once the right level r = ceil(m/2) is empty, so is every longer one."""
    if tab.equal(np.eye(tab.n), target):
        return [], 0.0
    floor = tab.costs.min(initial=np.inf)
    best = None  # (cost, word)
    scans = {}  # left level l -> its scans for lengths 2l and 2l+1, one query
    for m in range(1, max_length + 1):
        if best is not None and m * floor >= best[0] - WEIGHT_TOL:
            break
        l, r = m // 2, m - m // 2
        tab.ensure_level(r, budget)
        left, right = tab.levels[l], tab.levels[r]
        scan = scans.setdefault(l, itertools.tee(tab.query_keys(l, target, budget)))
        for lo, qkeys in scan[m % 2]:
            k = right.members(qkeys)
            hits = np.flatnonzero(k >= 0)
            cost = left.cost[lo + hits] + right.cost[k[hits]]
            for h in np.argsort(cost, kind="stable"):
                if best is not None and cost[h] >= best[0] - WEIGHT_TOL:
                    break
                seq = tab.peel(l, lo + int(hits[h])) + tab.peel(r, int(k[hits[h]]))
                if tab.equal(sequence_product(tab.gen[seq], tab.n), target):
                    best = (float(cost[h]), seq)
            if best is not None and best[0] <= m * floor + WEIGHT_TOL:
                return best[1], best[0]
        if not right.count:
            break
    return None if best is None else (best[1], best[0])


def _layers(gs: GateSet, ni: list[int]) -> list[tuple[int, ...]]:
    """Depth's letters: every nonempty set of the gates ni on pairwise disjoint
    qubits, fewest gates first.  Counted before any matrix is built: more than
    their stack and two sketch maps fit the table budget are inconclusive."""
    cap = _MATRIX_BUDGET_BYTES // (gs.dim ** 2 * 16 * (1 + 4 * _SKETCH_DIM))
    layers = [((), frozenset())]
    for i in ni:
        s = gs[i].support
        layers += [(lay + (i,), used | s) for lay, used in layers if s and not used & s]
        if len(layers) - 1 > cap:
            raise OracleInconclusiveError(f"more than {cap} layers: their sketch maps "
                                          "would pass the table budget")
    return sorted((lay for lay, _ in layers[1:]), key=lambda lay: (len(lay), lay))


def _least_depth(tab: LevelTables, target: np.ndarray, scalars: list[complex], P: int,
                 D: int, budget: _Budget) -> tuple[list[int], float] | None:
    """Least-depth word of at most P gates and depth at most D, and its
    depth, or None.  Letter len(tab.gen) + j is the pure phase scalars[j];
    each scalar they reach, with a fewest-gate word, shifts the target.
    Once a level of at most d + 1 layers is empty, no longer word is cheaper."""
    shifts = [(1.0, [])]
    for s, word in shifts:  # breadth first: the loop reaches what it appends
        for j, c in enumerate(scalars):
            if all(abs(s * c - u) > VERIFY_TOL for u, _ in shifts):
                shifts.append((s * c, word + [len(tab.gen) + j]))
    for d in range(D + 1):
        for scalar, phases in shifts:
            found = _mitm(tab, target * np.conj(scalar), d, budget)
            if found is not None and found[1] + len(phases) <= P:
                return found[0] + phases, float(d)
        if any(not lev.count for lev in tab.levels[:d + 2]):
            break
    return None


def _best_score(tab: LevelTables, target: np.ndarray, max_length: int, fid: bool,
                budget: _Budget, box: float | None) -> tuple[list[int], float] | None:
    """Best-scoring word of at most max_length gates and its score, or None.

    The score is |tr(T^dag U)|^2 / n^2 with `fid`, Re tr(T^dag U) / n
    without.  With a `box`, only words whose every Re/Im deviation from the
    target lies within box + VERIFY_TOL count.  Levels past an empty one
    are empty too, so the scan stops there.
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
        if not tab.levels[l].count:
            break
        for lo, chunk in tab.iter_level_matrices(l):
            budget.charge(len(chunk))
            vals = score(chunk)
            k = int(vals.argmax())
            if vals[k] > best_val + 1e-12:
                best_val = float(vals[k])
                best = (l, lo + k)
    if best_val == -np.inf:
        return None
    return tab.peel(*best), best_val


def exhaustive_synthesize(problem: SynthesisProblem,
                          time_limit: float | None = None) -> OracleResult:
    """Provably optimal answer to `problem` over every word of at most P gates.

    Returns gate-set indices (identity never appears in the sequence).  The
    search reads the problem's effective instance, matched up to a global
    phase when problem.up_to_phase, and, by objective:

    - weighted_gate_count: the weights, as the gate letters' costs.
    - depth: D; a least depth above D is infeasible, as in the MIP.  A layer
      alphabet past the table budget raises OracleInconclusiveError.
    - linearized_fidelity: nothing more; the score is alpha, Re tr(T^dag U) / n.
    - exact_fidelity: nothing more; the score is |tr(T^dag U)|^2 / n^2.
    - frobenius_oa: epsilon.  Only words whose Re/Im deviations from the
      target lie in the epsilon-box count, and none there is infeasible.
      Among them the best alpha has the least squared Frobenius error,
      4n (1 - alpha): both routes minimize that same error.

    `time_limit` is in seconds; None means no limit.  Searching more than
    NODE_BUDGET nodes or past the time limit raises OracleInconclusiveError.
    """
    time_limit = checked_time_limit(time_limit)
    target, gs = problem.effective_instance
    P, objective = problem.P, problem.objective
    budget = _Budget(NODE_BUDGET, time_limit)
    ni, mats = gs.non_identity_indices(), gs.matrices()
    letters, stack, phases = [(i,) for i in ni], mats[ni], []
    # fidelity scans read every level member whatever it costs: unit costs
    costs = problem.weights[ni] if objective == "weighted_gate_count" else np.ones(len(ni))
    if objective == "depth":
        letters = _layers(gs, ni)
        costs = [len(lay) for lay in letters]
        phases = [] if problem.up_to_phase else [i for i in ni if not gs[i].support]
        stack = np.array([sequence_product(mats[list(lay)], gs.dim) for lay in letters],
                         dtype=complex).reshape(-1, gs.dim, gs.dim)
    tab = _tables_for(stack, costs, problem.up_to_phase)
    letters = letters + [(i,) for i in phases]  # pure phases follow the table's letters
    try:
        if objective == "weighted_gate_count":
            found = _mitm(tab, target, P, budget)
        elif objective == "depth":
            found = _least_depth(tab, target, [mats[i][0, 0] for i in phases], P,
                                 problem.D, budget)
        else:
            found = _best_score(tab, target, P, objective == "exact_fidelity", budget,
                                problem.epsilon if objective == "frobenius_oa" else None)
    finally:
        _trim_cache(keep=tab)
    seq = None if found is None else [g for p in found[0] for g in letters[p]]
    return OracleResult(status="infeasible" if seq is None else "optimal", sequence=seq,
                        objective=None if seq is None else found[1],
                        nodes=budget.nodes, seconds=budget.seconds)


__all__ = [
    "OracleResult", "exhaustive_synthesize", "checked_time_limit",
    "LevelTables", "clear_oracle_cache", "CACHE_BUDGET_BYTES", "KEY_SCALE", "VERIFY_TOL",
]
