"""Mirsky construction with numpy pivot selection: the reference for
majorize.mirsky_matrix, which chooses its pivots in scalar arithmetic.

Each pin rebuilds the vector of unpinned diagonal entries and picks the
pivot pair with numpy reductions; the rotations are the same elementwise
column and row updates, so the two constructions must agree bit for bit.
The caller checks the majorization precondition.
"""

import numpy as np

from homscat.matkit import max_abs


def mirsky_matrix(diag_entries, eigenvalues):
    d = np.atleast_1d(np.asarray(diag_entries, dtype=float))
    lam = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
    n = d.size
    order = np.argsort(d, kind="stable")
    targets = d[order]
    A = np.diag(np.sort(lam))
    unpinned = list(range(n))
    pin_slot = np.empty(n, dtype=int)
    scale = max(1.0, max_abs(lam))
    snap = 1e-13 * scale
    for k, t in enumerate(targets):
        vals = np.array([A[s, s] for s in unpinned])
        below = vals <= t + snap
        above = vals >= t - snap
        a_idx = int(np.nonzero(below)[0][np.argmax(vals[below])]) if below.any() else int(np.argmin(np.abs(vals - t)))
        b_idx = int(np.nonzero(above)[0][np.argmin(vals[above])]) if above.any() else int(np.argmin(np.abs(vals - t)))
        a_slot, b_slot = unpinned[a_idx], unpinned[b_idx]
        va, vb = A[a_slot, a_slot], A[b_slot, b_slot]
        if a_slot == b_slot or vb - va <= snap:
            # target coincides with an available slot value, no rotation needed
            chosen = a_slot if abs(va - t) <= abs(vb - t) else b_slot
            pin_slot[k] = chosen
            unpinned.remove(chosen)
            continue
        c = np.sqrt((vb - t) / (vb - va))
        s = np.sqrt((t - va) / (vb - va))
        cp, cq = A[:, a_slot].copy(), A[:, b_slot].copy()
        A[:, a_slot] = c * cp - s * cq
        A[:, b_slot] = s * cp + c * cq
        rp, rq = A[a_slot, :].copy(), A[b_slot, :].copy()
        A[a_slot, :] = c * rp - s * rq
        A[b_slot, :] = s * rp + c * rq
        pin_slot[k] = a_slot
        unpinned.remove(a_slot)
    rank_of = np.empty(n, dtype=int)
    rank_of[order] = np.arange(n)
    placement = pin_slot[rank_of]
    out = A[np.ix_(placement, placement)]
    return 0.5 * (out + out.T)
