"""Exhaustive synthesis used as an independent reference implementation.

Minimum-length questions run as a meet-in-the-middle search over deduplicated
product levels: level l holds every matrix reachable with exactly l
non-identity gates and not reachable with fewer.  A length-m query splits
m = l + r, iterates the left level, and hash-looks the required right factor
up in the keys of level r; sequences come back by peeling generators against
lower-level key sets, and every answer is re-verified in exact arithmetic
before it is returned.  Level tables are target independent and cached per
gate set, least recently used first out once their stored matrices pass
CACHE_BUDGET_BYTES.

The dense kernels are single matrix products (GEMM): a level expands as
parents (c*n, n) times all generators side by side (n, g*n), a query forms
every chunk^H @ target at once, and a trace overlap is one matrix-vector
product.  A key is a sketch, not the matrix: the 2n^2 real entries are
projected onto 8 fixed, seeded unit-norm directions, rounded at KEY_SCALE and
hashed.  Two distinct matrices share a key only if they agree to about 1e-6
along all 8 directions; every hit is still peeled and re-verified against the
exact matrices.

Weighted counts and circuit depth are not monotone in sequence length, so
those objectives fall back to a pruned depth-first enumeration.  Fidelity
objectives score whole levels vectorized.

All search modes are exhaustive within `max_length`: a returned optimum is
proven, and "infeasible" means no realization of length <= max_length
exists.  Exceeding the node budget or time limit raises
OracleInconclusiveError instead of guessing.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from .encoding import require_unitary
from .errors import DimensionError, OracleInconclusiveError
from .gates import GateSet, sequence_product
from .relations import canonical_phase, equal_matrices

#: Rounding scale of the key sketch.  Projection columns have unit norm, so
#: the sketch carries the entries' accumulated matmul error (~1e-14) without
#: amplifying it, far below the 1e-6 rounding step.
KEY_SCALE = 1e6
#: Number of projection directions in a key sketch.
_SKETCH_DIM = 8
#: Default bytes of level matrices one LevelTables stores.
_MATRIX_BUDGET_BYTES = 800 << 20
#: Total stored_bytes the table cache keeps before evicting the least
#: recently used tables; equal to one table's matrix budget.
CACHE_BUDGET_BYTES = _MATRIX_BUDGET_BYTES
#: Tolerance for the final exact re-verification of a candidate sequence.
VERIFY_TOL = 1e-9
#: Transient chunk size target in bytes for vectorized expansions.
_CHUNK_BYTES = 120_000_000


def _multipliers(count: int) -> np.ndarray:
    rng = np.random.default_rng(0xC0FFEE)
    return (rng.integers(0, 2 ** 62, size=count, dtype=np.uint64) * np.uint64(2)
            + np.uint64(1))


def _projection(dim: int) -> np.ndarray:
    """Fixed, seeded (dim, _SKETCH_DIM) projection with unit-norm columns."""
    rng = np.random.default_rng(0x5EED)
    proj = rng.standard_normal((dim, _SKETCH_DIM))
    return proj / np.linalg.norm(proj, axis=0)


class _KeySet:
    """Growing set of uint64 keys with vectorized membership tests."""

    def __init__(self) -> None:
        self._base = np.empty(0, dtype=np.uint64)
        self._pending: list[np.ndarray] = []
        self._pending_n = 0

    def _consolidate(self) -> None:
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
            self._consolidate()

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
    mats: np.ndarray | None  # stored matrices, or None when keys-only
    count: int


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

    def __init__(self, gs: GateSet, phase_mode: str,
                 matrix_budget_bytes: int = _MATRIX_BUDGET_BYTES) -> None:
        self.ni = gs.non_identity_indices()
        mats = gs.matrices()
        self.gen = np.ascontiguousarray(mats[self.ni])
        self.n = gs.dim
        # gen_cols[j, g*n + k] = gen[g, j, k]: every generator side by side
        self.gen_cols = np.ascontiguousarray(
            self.gen.transpose(1, 0, 2).reshape(self.n, len(self.ni) * self.n))
        self.up_to_phase = phase_mode == "global_phase"
        self.proj = _projection(2 * self.n * self.n)
        self.mults = _multipliers(_SKETCH_DIM)
        self.matrix_budget = matrix_budget_bytes
        self.stored_bytes = 0
        eye = np.eye(self.n, dtype=complex)[None, :, :]
        lvl0 = _Level(keys=_KeySet(), mats=eye, count=1)
        lvl0.keys.add(self.keys_of(eye))
        self.levels: list[_Level] = [lvl0]
        row_bytes = max(1, len(self.ni)) * self.n * self.n * 16
        self.chunk_rows = max(64, _CHUNK_BYTES // row_bytes)

    def keys_of(self, stack: np.ndarray) -> np.ndarray:
        if self.up_to_phase:
            stack = canonical_phase(stack)
        flat = np.ascontiguousarray(stack, dtype=complex).view(np.float64)
        sketch = flat.reshape(-1, len(self.proj)) @ self.proj
        q = np.round(sketch * KEY_SCALE).astype(np.int64).astype(np.uint64)
        return (q * self.mults[None, :]).sum(axis=1, dtype=np.uint64)

    def key_of_one(self, m: np.ndarray) -> np.uint64:
        return self.keys_of(m[None, :, :])[0]

    def _expand(self, parents: np.ndarray) -> np.ndarray:
        """All parent @ generator products, parent-major, generator-minor."""
        n, c = self.n, len(parents)
        prods = parents.reshape(c * n, n) @ self.gen_cols  # [c, i, g, k]
        return prods.reshape(c, n, -1, n).transpose(0, 2, 1, 3).reshape(-1, n, n)

    def iter_level_matrices(self, l: int, budget: _Budget):
        """Yield chunks covering every level-l matrix (reachable in exactly l
        gates, not fewer); keys-only levels are re-expanded transiently and may
        repeat elements."""
        lev = self.levels[l]
        if lev.mats is not None:
            for i in range(0, len(lev.mats), self.chunk_rows):
                yield lev.mats[i:i + self.chunk_rows]
            return
        for parents in self.iter_level_matrices(l - 1, budget):
            prods = self._expand(parents)
            budget.charge(len(prods))
            keep = lev.keys.contains(self.keys_of(prods))
            if keep.any():
                yield prods[keep]

    def ensure_level(self, lmax: int, budget: _Budget) -> None:
        while len(self.levels) <= lmax:
            l = len(self.levels)
            keys = _KeySet()
            kept_chunks: list[np.ndarray] = []
            kept_bytes = 0
            storing = True
            count = 0
            for parents in self.iter_level_matrices(l - 1, budget):
                prods = self._expand(parents)
                budget.charge(len(prods))
                pkeys = self.keys_of(prods)
                uniq, first = np.unique(pkeys, return_index=True)
                seen = keys.contains(uniq)
                for lower in self.levels:
                    seen |= lower.keys.contains(uniq)
                fresh = first[~seen]
                if len(fresh) == 0:
                    continue
                keys.add(pkeys[fresh])
                count += len(fresh)
                if storing:
                    block = prods[np.sort(fresh)]
                    kept_bytes += block.nbytes
                    if self.stored_bytes + kept_bytes > self.matrix_budget:
                        storing = False
                        kept_chunks = []
                    else:
                        kept_chunks.append(block)
            mats = None
            if storing:
                mats = (np.concatenate(kept_chunks) if kept_chunks
                        else np.empty((0, self.n, self.n), dtype=complex))
                self.stored_bytes += mats.nbytes
            self.levels.append(_Level(keys=keys, mats=mats, count=count))

    def equal(self, a: np.ndarray, b: np.ndarray, tol: float = VERIFY_TOL) -> bool:
        return equal_matrices(a, b, self.up_to_phase, tol)

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


#: Level tables by gate set and phase mode, least recently used first.
_TABLE_CACHE: dict[tuple, LevelTables] = {}


def _tables_for(gs: GateSet, phase_mode: str) -> LevelTables:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(gs.matrices()).tobytes())
    digest.update(bytes(gs.non_identity_indices()))
    key = (digest.hexdigest(), phase_mode)
    tab = _TABLE_CACHE.pop(key, None)
    if tab is None:
        tab = LevelTables(gs, phase_mode)
    _TABLE_CACHE[key] = tab
    return tab


def _trim_cache(keep: LevelTables) -> None:
    """Evict least recently used tables until the stored matrices of the cache
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

    @property
    def length(self) -> int | None:
        return None if self.sequence is None else len(self.sequence)


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
    right_keys = tab.levels[r].keys
    for chunk in tab.iter_level_matrices(l, budget):
        budget.charge(len(chunk))
        needed = _right_factors(chunk, target)
        hits = np.nonzero(right_keys.contains(tab.keys_of(needed)))[0]
        for h in hits:
            left_seq = tab.peel(chunk[h], l)
            right_seq = tab.peel(np.ascontiguousarray(needed[h]), r)
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


def _dfs_weighted(tab: LevelTables, target: np.ndarray, max_length: int,
                  weights: np.ndarray, budget: _Budget) -> tuple[list[int], float] | None:
    order = sorted(range(len(tab.gen)), key=lambda p: weights[tab.ni[p]])
    best: tuple[float, list[int]] | None = None

    def rec(prod: np.ndarray, seq: list[int], w: float) -> None:
        nonlocal best
        budget.charge()
        if best is not None and w >= best[0] - 1e-12:
            return
        if tab.equal(prod, target):
            best = (w, list(seq))
            return
        if len(seq) == max_length:
            return
        for p in order:
            seq.append(p)
            rec(prod @ tab.gen[p], seq, w + weights[tab.ni[p]])
            seq.pop()

    rec(np.eye(tab.n, dtype=complex), [], 0.0)
    if best is None:
        return None
    return best[1], best[0]


def _dfs_depth(tab: LevelTables, gs: GateSet, target: np.ndarray, max_length: int,
               budget: _Budget) -> tuple[list[int], int] | None:
    supports = [gs[i].support for i in tab.ni]
    best: tuple[int, list[int]] | None = None

    def rec(prod: np.ndarray, seq: list[int], depth: int, layer: frozenset[int]) -> None:
        nonlocal best
        budget.charge()
        if best is not None and depth >= best[0]:
            return
        if tab.equal(prod, target):
            best = (depth, list(seq))
            return
        if len(seq) == max_length:
            return
        for p in range(len(tab.gen)):
            s = supports[p]
            if not s:  # no qubits: no layer, as in schedule_depth
                nd, nl = depth, layer
            elif depth == 0 or (s & layer):
                nd, nl = depth + 1, s
            else:
                nd, nl = depth, layer | s
            seq.append(p)
            rec(prod @ tab.gen[p], seq, nd, nl)
            seq.pop()

    rec(np.eye(tab.n, dtype=complex), [], 0, frozenset())
    if best is None:
        return None
    return best[1], best[0]


def _best_score(tab: LevelTables, target: np.ndarray, max_length: int, mode: str,
                budget: _Budget) -> tuple[list[int], float]:
    def score(stack: np.ndarray) -> np.ndarray:
        tr = stack.reshape(len(stack), -1) @ target.conj().ravel()
        if mode == "fidelity":
            return np.abs(tr) ** 2 / tab.n ** 2
        if tab.up_to_phase:
            return np.abs(tr) / tab.n
        return tr.real / tab.n

    best_val = float(score(np.eye(tab.n, dtype=complex)[None])[0])
    best_mat = np.eye(tab.n, dtype=complex)
    best_level = 0
    for l in range(1, max_length + 1):
        tab.ensure_level(l, budget)
        for chunk in tab.iter_level_matrices(l, budget):
            budget.charge(len(chunk))
            vals = score(chunk)
            k = int(vals.argmax())
            if vals[k] > best_val + 1e-12:
                best_val = float(vals[k])
                best_mat = np.ascontiguousarray(chunk[k])
                best_level = l
    seq = tab.peel(best_mat, best_level)
    if seq is None:
        raise OracleInconclusiveError("failed to reconstruct the best-scoring sequence")
    return seq, best_val


def exhaustive_synthesize(target: np.ndarray, gs: GateSet, max_length: int,
                          objective: str = "gate_count", phase_mode: str = "exact",
                          weights: np.ndarray | None = None,
                          node_budget: int = 20_000_000,
                          time_limit: float | None = None) -> OracleResult:
    """Provably optimal synthesis by exhaustive search up to `max_length` gates.

    Returns gate-set indices (identity never appears in the sequence).  The
    target is compared exactly or up to a global phase per `phase_mode`.
    """
    target = np.asarray(target, dtype=complex)
    require_unitary(target)
    if target.shape != (gs.dim, gs.dim):
        raise DimensionError(
            f"target is {target.shape[0]}x{target.shape[1]}, gate set needs "
            f"{gs.dim}x{gs.dim}")
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    if phase_mode not in ("exact", "global_phase"):
        raise ValueError(f"unknown phase mode {phase_mode!r}")
    if objective not in ("gate_count", "depth", "fidelity", "alpha"):
        raise ValueError(f"unknown oracle objective {objective!r}")

    tab = _tables_for(gs, phase_mode)
    budget = _Budget(node_budget, time_limit)
    w = None
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(gs),):
            raise ValueError(f"weights must have one entry per gate, got {w.shape}")
        if np.any(w[tab.ni] < 0):
            raise ValueError("gate weights must be non-negative")

    def search() -> tuple[list[int] | None, float | None]:
        if objective == "gate_count":
            uniform = w is None or (len(tab.ni) > 0 and np.ptp(w[tab.ni]) <= 1e-12)
            if not uniform:
                return _dfs_weighted(tab, target, max_length, w, budget) or (None, None)
            unit = 1.0 if w is None else float(w[tab.ni[0]]) if tab.ni else 0.0
            seq = _mitm_min_length(tab, target, max_length, budget)
            return seq, None if seq is None else unit * len(seq)
        if objective == "depth":
            return _dfs_depth(tab, gs, target, max_length, budget) or (None, None)
        return _best_score(tab, target, max_length, objective, budget)

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
    "OracleResult", "exhaustive_synthesize",
    "LevelTables", "clear_oracle_cache", "CACHE_BUDGET_BYTES", "KEY_SCALE", "VERIFY_TOL",
]
