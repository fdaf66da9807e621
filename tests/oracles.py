"""Dense reference implementations the tests compare the package against.

Not collected by pytest (no `test_` prefix); tests import it as
`from oracles import ...`, since pytest puts this directory on sys.path.
"""

from typing import List, Tuple

import numpy as np

from discshift.bandlimited import aopt_objective, aopt_pool
from discshift.graphs import ProductOperator, product_dense
from discshift.sampling import SampleSet

ORACLE_CAP = 64
ORACLE_TIE_TOL = 1e-12


def exact_greedy_oracle(op: ProductOperator, K: int) -> Tuple[SampleSet, List[float]]:
    """Brute-force greedy: per step, add the unit self-loop that maximizes the
    smallest eigenvalue, evaluated densely over every candidate; a candidate
    must beat the best so far by ORACLE_TIE_TOL, so ties go to the lowest index.

    Refuses mn above ORACLE_CAP. Returns the selections and the per-step
    smallest eigenvalue right after each addition.
    """
    size = op.size
    if size > ORACLE_CAP:
        raise ValueError(f"mn={size} above exact oracle cap {ORACLE_CAP}")
    Q = product_dense(op)
    sampled = op.sample_diag.astype(bool).copy()
    picks: List[int] = []
    trace: List[float] = []
    for _ in range(K):
        cand = np.flatnonzero(~sampled)
        if cand.size == 0:
            raise ValueError("budget exceeds pool")
        best = None
        for k in cand:
            Qk = Q.copy()
            Qk[k, k] += 1.0
            lam = float(np.linalg.eigvalsh(Qk)[0])
            if best is None or lam > best[1] + ORACLE_TIE_TOL:
                best = (int(k), lam)
        k_star, lam_star = best
        Q[k_star, k_star] += 1.0
        sampled[k_star] = True
        picks.append(k_star)
        trace.append(lam_star)
    j, i = divmod(np.array(picks, dtype=np.int64), op.m)
    return SampleSet(np.column_stack((i, j)), op.m, K), trace


def aopt_pick_reference(basis, L_pool: int):
    """A-opt's pick rule without a screen: every member of aopt_pool, in its
    ascending order, is scored exactly by aopt_objective, and a score
    replaces the best so far only when it lies more than 1e-12 below it."""
    def pick(phi, available, picks):
        pool = aopt_pool(phi, available, L_pool)
        S = np.empty((len(pool), len(picks) + 1), dtype=np.int64)
        S[:, :-1] = picks
        S[:, -1] = pool
        best_idx, best_val = None, None
        for c, val in zip(pool, aopt_objective(basis, S).tolist()):
            if best_val is None or val < best_val - 1e-12:
                best_idx, best_val = c, val
        return best_idx

    return pick
