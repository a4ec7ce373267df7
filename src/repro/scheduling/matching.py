"""Edmonds' blossom algorithm for weighted matching, from scratch.

The paper reduces SIC-aware client scheduling to *minimum-weight
perfect matching* (Section 6, Fig. 12) and invokes Edmonds' algorithm.
This module implements the primal-dual blossom method — the O(n^3)
stage-based formulation due to Galil ("Efficient algorithms for finding
maximum matching in graphs", 1986) — as one dense kernel, with two
entry points:

* ``min_weight_perfect_matching`` — what the scheduler calls: on a
  complete even-order graph, quantise the costs, negate-and-shift them
  and ask for the maximum-cardinality maximum-weight matching;
* ``max_weight_matching`` — maximum-weight matching on a general graph,
  optionally constrained to maximum cardinality.  Absent edges are
  masked out of the same kernel.

Data layout.  The kernel reads four times the ``n x n`` weight
matrix, stored as row lists.  Vertices are ``0..n-1`` and non-trivial
blossoms take identifiers ``n..2n-1``.  An *endpoint* ``a*n + b`` is
"the end at ``a`` of edge {a, b}": its vertex is ``p // n``, the
opposite endpoint of the same edge is ``(p % n) * n + p // n``, and
the canonical id of edge {i, j} with ``i < j`` is ``i*n + j``.
``mate[v]`` holds the remote endpoint of v's matched edge.  The
tree-growth scan walks each vertex's neighbours in ascending order, so
on a graph whose edges are listed in row-major order it makes the same
choices, tie-breaks included, as the sparse edge-list formulation
frozen in :mod:`repro.scheduling.matching_scalar`.

Dual variables live on vertices (``u_v``) and blossoms (``z_b``); a
matching is optimal when every edge has non-negative slack
``u_i + u_j + (blossom terms) - 2*w_ij`` and every matched edge has
zero slack.  They are kept in **doubled units** (``2*u_v``), which
makes every quantity — slacks, the four dual-adjustment deltas,
blossom duals — an exact integer whenever the edge weights are
integral (the true duals are multiples of 1/2, and the doubled S-to-S
slack that delta type 3 halves is provably even, so ``>> 1`` is
exact).  Float weights halve with ``/ 2``; scaling by two is exact in
IEEE arithmetic, so the doubled run makes the same decisions as the
un-doubled reference.  Python integers never overflow, so no weight
needs a floating-point fallback.

Everything is plain Python lists: at the sizes the scheduler runs
(2-64 vertices) a list read beats a NumPy gather, and each dual
adjustment is one O(n) pass.  The dense internal ``assert``s are gated
behind ``debug=True``.  Golden tests pin this kernel to the frozen
reference's exact ``mate`` arrays; ``benchmarks/test_bench_scheduler.py``
tracks its speed against it.

Weights must be integers for exactness.  ``min_weight_perfect_matching``
therefore quantises float costs onto a fine integer grid before
solving; with a grid of ``max_cost / 1e12`` the rounding is far below
any physically meaningful airtime difference.
"""

from __future__ import annotations

from math import inf
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Set, Tuple

Edge = Tuple[int, int, float]


def _enumerate_perfect_matchings(
        vertices: Tuple[int, ...]) -> List[Tuple[Tuple[int, int], ...]]:
    """All perfect matchings of a complete graph on ``vertices``."""
    if not vertices:
        return [()]
    first, rest = vertices[0], vertices[1:]
    matchings: List[Tuple[Tuple[int, int], ...]] = []
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1:]
        for sub in _enumerate_perfect_matchings(remaining):
            matchings.append(((first, partner),) + sub)
    return matchings


#: Complete graphs this small are solved by enumeration (1, 3 and 15
#: candidate matchings) instead of the blossom machinery — the trace
#: scheduler's snapshots are overwhelmingly 2-6 vertices.
_SMALL_PERFECT_MATCHINGS = {
    n: _enumerate_perfect_matchings(tuple(range(n))) for n in (2, 4, 6)
}


def _flip(p: int, n: int) -> int:
    """The opposite endpoint of endpoint ``p = a*n + b``: ``b*n + a``."""
    a, b = divmod(p, n)
    return b * n + a


def _allow(allowed: List[List[bool]], p: int, n: int) -> None:
    """Mark the edge of endpoint ``p`` as crossable, both ways."""
    a, b = divmod(p, n)
    allowed[a][b] = allowed[b][a] = True


def _leaves(b: int, n: int, childs: List[Optional[List[int]]]) -> List[int]:
    """The vertices of blossom ``b``, in the recursive child order.

    An iterative depth-first walk: reversed extends make the stack pop
    children left to right.
    """
    out = []
    stack = [b]
    while stack:
        t = stack.pop()
        if t < n:
            out.append(t)
        else:
            stack.extend(childs[t][::-1])
    return out


def _blossom(w4: List[List[float]], adj: Sequence[Sequence[int]],
             integral: bool, maxcardinality: bool,
             debug: bool) -> List[int]:
    """The dense primal-dual blossom kernel.

    ``w4`` is four times the symmetric ``n x n`` weight matrix, as row
    lists: in doubled dual units the slack of edge {i, j} is
    ``dualvar[i] + dualvar[j] - w4[i][j]``.  ``adj[v]`` lists v's
    neighbours in ascending order (it may include v itself, which the
    scan skips as an internal edge); entries off ``adj`` must be 0 and
    are otherwise never read.  ``integral`` says every weight is an
    ``int``, so halving may use ``>> 1``.  Returns ``mate`` with
    ``mate[v]`` the partner of ``v`` or ``-1``.
    """
    n = len(w4)
    # Float slacks are recomputed after each dual adjustment, through
    # a flat copy of w4 indexed by endpoint.
    w4_flat = None if integral else [x for row in w4 for x in row]
    # Twice the largest weight (at least 0): the initial vertex dual.
    top2 = max(0, max(max(row) for row in w4))
    top2 = top2 >> 1 if integral else top2 / 2

    # mate[v] is the remote endpoint of v's matched edge, or -1.
    mate = n * [-1]

    # label[b]: 0 = free, 1 = S (even), 2 = T (odd); +4 marks a
    # breadcrumb during scan_blossom.  Indexed by top-level blossom for
    # blossoms, and additionally per-vertex for T-side bookkeeping.
    label = (2 * n) * [0]

    # labelend[b]: the endpoint through which b acquired its label.
    labelend = (2 * n) * [-1]

    # inblossom[v]: the top-level blossom containing vertex v.
    inblossom = list(range(n))

    # Blossom structure: parent, ordered children, base vertex, and the
    # connecting endpoints between consecutive children.
    blossomparent = (2 * n) * [-1]
    blossomchilds: List[Optional[List[int]]] = (2 * n) * [None]
    blossombase = list(range(n)) + n * [-1]
    blossomendps: List[Optional[List[int]]] = (2 * n) * [None]

    # bestedge[b]: least-slack edge (any endpoint of it) from b to a
    # different S-blossom, or -1; bestslack[b] caches its slack under
    # the current duals (inf without one).  Each dual adjustment brings
    # the cache up to date, so no scan recomputes a stored slack.
    bestedge = (2 * n) * [-1]
    bestslack = (2 * n) * [inf]
    blossombestedges: List[Optional[List[int]]] = (2 * n) * [None]

    unusedblossoms = list(range(n, 2 * n))

    # Dual variables in doubled units: 2*u_v for vertices (init twice
    # the max weight), 2*z_b for blossoms (init 0).
    dualvar = n * [top2] + n * [0]

    # allowed[i][j]: edge {i, j} has zero slack and may be crossed
    # (kept symmetric).
    allowed = [n * [False] for _ in range(n)]

    queue: List[int] = []

    def assign_label(w: int, t: int, p: int) -> None:
        """Give vertex w (and its blossom) label t via endpoint p."""
        b = inblossom[w]
        if debug:
            assert label[w] == 0 and label[b] == 0
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        bestslack[w] = bestslack[b] = inf
        if t == 1:
            # S-blossom: scan all its vertices (a bare vertex is its
            # own single leaf — skip the walk).
            if b < n:
                queue.append(b)
            else:
                queue.extend(_leaves(b, n, blossomchilds))
        elif t == 2:
            # T-blossom: its base's mate becomes an S-vertex.
            base = blossombase[b]
            if debug:
                assert mate[base] >= 0
            assign_label(mate[base] // n, 1, _flip(mate[base], n))

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from v and w; return a common ancestor base or -1.

        -1 means the alternating paths from v and w reach different
        free roots, i.e. edge (v, w) closes an augmenting path.
        """
        path = []
        base = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            if debug:
                assert label[b] == 1
            path.append(b)
            label[b] = 5  # breadcrumb: 1 | 4
            if debug:
                assert labelend[b] == mate[blossombase[b]]
            if labelend[b] == -1:
                v = -1  # reached a free root
            else:
                v = labelend[b] // n
                b = inblossom[v]
                if debug:
                    assert label[b] == 2
                    assert labelend[b] >= 0
                v = labelend[b] // n
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, v: int, w: int) -> None:
        """Shrink the odd cycle through edge {v, w} (v < w) and ``base``."""
        endp_vw = v * n + w
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        # Walk from v back to the base, collecting the path.
        path: List[int] = []
        endps: List[int] = []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            if debug:
                assert (label[bv] == 2
                        or (label[bv] == 1
                            and labelend[bv] == mate[blossombase[bv]]))
                assert labelend[bv] >= 0
            v = labelend[bv] // n
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(endp_vw)
        # Walk from w back to the base, extending forwards.
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(_flip(labelend[bw], n))
            if debug:
                assert (label[bw] == 2
                        or (label[bw] == 1
                            and labelend[bw] == mate[blossombase[bw]]))
                assert labelend[bw] >= 0
            w = labelend[bw] // n
            bw = inblossom[w]
        if debug:
            assert label[bb] == 1
        blossomchilds[b] = path
        blossomendps[b] = endps
        label[b] = 1
        labelend[b] = labelend[bb]
        dualvar[b] = 0
        for leaf in _leaves(b, n, blossomchilds):
            if label[inblossom[leaf]] == 2:
                # Former T-vertices become S-vertices; scan them.
                queue.append(leaf)
            inblossom[leaf] = b
        # Merge the children's best-edge caches: per child, either its
        # cached list or every edge out of its leaves.  The duals are
        # constant throughout, so every slack stays coherent.
        bestedgeto = (2 * n) * [-1]
        bestslackto = (2 * n) * [0]
        touched: List[int] = []
        for bv in path:
            cached = blossombestedges[bv]
            if cached is None:
                for leaf in _leaves(bv, n, blossomchilds):
                    d_leaf = dualvar[leaf]
                    w4_leaf = w4[leaf]
                    base_p = leaf * n
                    for j in adj[leaf]:
                        bj = inblossom[j]
                        if bj != b and label[bj] == 1:
                            ksl = d_leaf + dualvar[j] - w4_leaf[j]
                            if bestedgeto[bj] == -1:
                                touched.append(bj)
                            elif ksl >= bestslackto[bj]:
                                continue
                            bestedgeto[bj] = base_p + j
                            bestslackto[bj] = ksl
            else:
                for p in cached:
                    i, j = divmod(p, n)
                    bj = inblossom[i] if inblossom[j] == b else inblossom[j]
                    if bj != b and label[bj] == 1:
                        ksl = dualvar[i] + dualvar[j] - w4[i][j]
                        if bestedgeto[bj] == -1:
                            touched.append(bj)
                        elif ksl >= bestslackto[bj]:
                            continue
                        bestedgeto[bj] = p
                        bestslackto[bj] = ksl
            blossombestedges[bv] = None
            bestedge[bv] = -1
            bestslack[bv] = inf
        # Final selection over the blossoms actually reached, in
        # ascending blossom order (first minimum wins ties).
        touched.sort()
        blossombestedges[b] = [bestedgeto[bj] for bj in touched]
        best = -1
        bestsl = inf
        for bj in touched:
            if bestslackto[bj] < bestsl:
                best = bestedgeto[bj]
                bestsl = bestslackto[bj]
        bestedge[b] = best
        bestslack[b] = bestsl

    def expand_blossom(b: int, endstage: bool) -> None:
        """Undo blossom b (its dual hit zero, or the stage ended)."""
        for s in blossomchilds[b]:
            blossomparent[s] = -1
            if s < n:
                inblossom[s] = s
            elif endstage and dualvar[s] == 0:
                # Recursively expand sub-blossoms with zero dual.
                expand_blossom(s, endstage)
            else:
                for leaf in _leaves(s, n, blossomchilds):
                    inblossom[leaf] = s
        if (not endstage) and label[b] == 2:
            # The expanding blossom was a T-blossom mid-stage: relabel
            # the even-path children and clear the odd-path ones.
            if debug:
                assert labelend[b] >= 0
            childs = blossomchilds[b]
            endps = blossomendps[b]
            entrychild = inblossom[labelend[b] % n]
            j = childs.index(entrychild)
            if j & 1:
                # Odd index: go forward around the blossom.
                j -= len(childs)
                jstep = 1
                endptrick = 0
            else:
                # Even index: go backward.
                jstep = -1
                endptrick = 1
            p = labelend[b]
            while j != 0:
                # Relabel the T-sub-blossom on the path to the base.
                q = endps[j - endptrick]
                label[p % n] = 0
                label[q // n if endptrick else q % n] = 0
                assign_label(p % n, 2, p)
                _allow(allowed, q, n)
                j += jstep
                p = endps[j - endptrick]
                if endptrick:
                    p = _flip(p, n)
                _allow(allowed, p, n)
                j += jstep
            # The base sub-blossom keeps label T without propagating.
            bv = childs[j]
            label[p % n] = label[bv] = 2
            labelend[p % n] = labelend[bv] = p
            bestedge[bv] = -1
            bestslack[bv] = inf
            # Children off the path lose their labels (but a vertex
            # individually reached from outside keeps a T handle).
            j += jstep
            while childs[j] != entrychild:
                bv = childs[j]
                if label[bv] == 1:
                    j += jstep
                    continue
                leaf = None
                for leaf in _leaves(bv, n, blossomchilds):
                    if label[leaf] != 0:
                        break
                if leaf is not None and label[leaf] != 0:
                    if debug:
                        assert label[leaf] == 2
                        assert inblossom[leaf] == bv
                    label[leaf] = 0
                    label[mate[blossombase[bv]] // n] = 0
                    assign_label(leaf, 2, labelend[leaf])
                j += jstep
        # Recycle b.
        label[b] = labelend[b] = -1
        blossomchilds[b] = blossomendps[b] = None
        blossombase[b] = -1
        blossombestedges[b] = None
        bestedge[b] = -1
        bestslack[b] = inf
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> None:
        """Swap matched/unmatched edges inside b so v becomes its base."""
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= n:
            augment_blossom(t, v)
        i = j = blossomchilds[b].index(t)
        if i & 1:
            j -= len(blossomchilds[b])
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = blossomchilds[b][j]
            p = blossomendps[b][j - endptrick]
            if endptrick:
                p = _flip(p, n)
            if t >= n:
                augment_blossom(t, p // n)
            j += jstep
            t = blossomchilds[b][j]
            if t >= n:
                augment_blossom(t, p % n)
            mate[p // n] = _flip(p, n)
            mate[p % n] = p
        blossomchilds[b] = blossomchilds[b][i:] + blossomchilds[b][:i]
        blossomendps[b] = blossomendps[b][i:] + blossomendps[b][:i]
        blossombase[b] = blossombase[blossomchilds[b][0]]
        if debug:
            assert blossombase[b] == v

    def augment_matching(v: int, w: int) -> None:
        """Flip the matching along the augmenting path through {v, w}."""
        for (s, p) in ((v, w * n + v), (w, v * n + w)):
            while True:
                bs = inblossom[s]
                if debug:
                    assert label[bs] == 1
                    assert labelend[bs] == mate[blossombase[bs]]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break  # reached a free root
                t = labelend[bs] // n
                bt = inblossom[t]
                if debug:
                    assert label[bt] == 2
                    assert labelend[bt] >= 0
                s = labelend[bt] // n
                j = labelend[bt] % n
                if debug:
                    assert blossombase[bt] == t
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = _flip(labelend[bt], n)

    # Local aliases for the tree-growth scan below, which visits every
    # neighbour of every scanned S-vertex: each slack is a list read.
    dv = dualvar
    inb = inblossom
    lbl = label
    best_l = bestedge
    best_sl = bestslack

    # Main loop: each stage finds one augmenting path (or proves none
    # exists and terminates).  The per-stage state starts out clear and
    # is cleared again after each successful stage.
    for _ in range(n):
        for v in range(n):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)
        if not queue:
            break  # every vertex is matched: nothing can change

        augmented = False
        while True:
            # Grow the forest from S-vertices in the queue.
            while queue and not augmented:
                v = queue.pop()
                if debug:
                    assert lbl[inb[v]] == 1
                dv_v = dv[v]
                inb_v = inb[v]
                w4_v = w4[v]
                allowed_v = allowed[v]
                vn = v * n
                for w in adj[v]:
                    bw = inb[w]
                    if inb_v == bw:
                        continue  # internal edge (or w == v)
                    if not allowed_v[w]:
                        kslack = dv_v + dv[w] - w4_v[w]
                        if kslack > 0:
                            # Not tight yet: keep the least-slack edge
                            # to each S-blossom and each free vertex.
                            if lbl[bw] == 1:
                                if kslack < best_sl[inb_v]:
                                    best_l[inb_v] = vn + w
                                    best_sl[inb_v] = kslack
                            elif lbl[w] == 0:
                                if kslack < best_sl[w]:
                                    best_l[w] = vn + w
                                    best_sl[w] = kslack
                            continue
                        allowed_v[w] = allowed[w][v] = True
                    lw = lbl[bw]
                    if lw == 0:
                        assign_label(w, 2, vn + w)
                    elif lw == 1:
                        base = scan_blossom(v, w)
                        # Blossoms and augmentations take the edge in
                        # canonical (i < j) orientation.
                        i, j = (v, w) if v < w else (w, v)
                        if base >= 0:
                            add_blossom(base, i, j)
                            # v now lives in the new blossom.
                            inb_v = inb[v]
                        else:
                            augment_matching(i, j)
                            augmented = True
                            break
                    elif lbl[w] == 0:
                        # w sits inside a T-blossom but was not yet
                        # individually reached; give it a handle so the
                        # blossom can expand through it later.
                        if debug:
                            assert lbl[bw] == 2
                        lbl[w] = 2
                        labelend[w] = vn + w
            if augmented:
                break

            # No zero-slack edges to cross: adjust the dual variables.
            # One O(n) pass finds each delta class's first minimum in
            # ascending order; the classes are then compared in
            # ascending type order with strict ``<``.
            deltatype = -1
            delta = deltaedge = deltablossom = None
            if not maxcardinality:
                deltatype = 1
                delta = min(dualvar[:n])
            vlab = list(map(label.__getitem__, inblossom))

            # Delta 2: least slack from an S-vertex to a free vertex.
            # Delta 3: half the least slack between two top-level
            # S-blossoms (halving keeps distinct slacks distinct, so the
            # first least slack is also the first least half).
            # Delta 4: least dual of a top-level T-blossom.
            min2 = min3 = min4 = inf
            x2 = x3 = x4 = -1
            v = 0
            for lv in vlab:
                if lv == 0:
                    if bestslack[v] < min2:
                        min2 = bestslack[v]
                        x2 = v
                elif lv == 1 and blossomparent[v] == -1:
                    if bestslack[v] < min3:
                        min3 = bestslack[v]
                        x3 = v
                v += 1
            # While no blossom has ever been allocated the blossom half
            # is inert, so it is skipped here and in the update below.
            # (Unallocated blossoms are labelled 0 or -1.)
            blossoms_live = len(unusedblossoms) < n
            if blossoms_live:
                for b in range(n, 2 * n):
                    if blossomparent[b] == -1:
                        if label[b] == 1:
                            if bestslack[b] < min3:
                                min3 = bestslack[b]
                                x3 = b
                        elif label[b] == 2 and dualvar[b] < min4:
                            min4 = dualvar[b]
                            x4 = b
            if debug:
                for x, p in enumerate(bestedge):
                    if p != -1:
                        i, j = divmod(p, n)
                        assert bestslack[x] == \
                            dualvar[i] + dualvar[j] - w4[i][j]
            if x2 != -1 and (deltatype == -1 or min2 < delta):
                delta, deltatype, deltaedge = min2, 2, bestedge[x2]
            if x3 != -1:
                # In doubled integer units the S-S slack is provably
                # even, so the halving shift is exact.
                if integral:
                    if debug:
                        assert not min3 & 1
                    min3 >>= 1
                else:
                    min3 /= 2
                if deltatype == -1 or min3 < delta:
                    delta, deltatype, deltaedge = min3, 3, bestedge[x3]
            if x4 != -1 and (deltatype == -1 or min4 < delta):
                delta, deltatype, deltablossom = min4, 4, x4

            if deltatype == -1:
                # No further improvement possible (max-cardinality mode
                # only); make the optimum verifiable anyway.
                if debug:
                    assert maxcardinality
                deltatype = 1
                delta = max(0, min(dualvar[:n]))

            # Apply delta: S-side vertices down, T-side up; the reverse
            # for top-level blossom duals.  With integral weights the
            # cached best-edge slacks move in step, exactly: every
            # cached edge has an S-vertex at its far end, so its slack
            # drops by 2*delta if the owner's side is S, by delta if it
            # is free, and stays put if it is T.  Float slacks are
            # recomputed instead, so no rounding can drift.
            if integral:
                twodelta = delta << 1
                v = 0
                for lv in vlab:
                    if lv == 1:
                        dualvar[v] -= delta
                        bestslack[v] -= twodelta
                    elif lv == 2:
                        dualvar[v] += delta
                    else:
                        bestslack[v] -= delta
                    v += 1
            else:
                v = 0
                for lv in vlab:
                    if lv == 1:
                        dualvar[v] -= delta
                    elif lv == 2:
                        dualvar[v] += delta
                    v += 1
            if blossoms_live:
                for b in range(n, 2 * n):
                    if blossomparent[b] == -1:
                        if label[b] == 1:
                            dualvar[b] += delta
                            if integral:
                                bestslack[b] -= twodelta
                        elif label[b] == 2:
                            dualvar[b] -= delta

            if deltatype == 1:
                break  # optimum reached
            if not integral:
                x = 0
                for p in bestedge:
                    if p >= 0:
                        bestslack[x] = (dualvar[p // n] + dualvar[p % n]
                                        - w4_flat[p])
                    x += 1
            if deltatype == 2:
                _allow(allowed, deltaedge, n)
                i, j = divmod(deltaedge, n)
                if label[inblossom[i]] == 0:
                    i, j = j, i
                if debug:
                    assert label[inblossom[i]] == 1
                queue.append(i)
            elif deltatype == 3:
                _allow(allowed, deltaedge, n)
                i = min(divmod(deltaedge, n))
                if debug:
                    assert label[inblossom[i]] == 1
                queue.append(i)
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break

        # End of a successful stage: expand S-blossoms whose dual
        # reached zero (they are no longer worth keeping shrunk).
        if len(unusedblossoms) < n:
            for b in range(n, 2 * n):
                if (blossomparent[b] == -1 and blossombase[b] >= 0
                        and label[b] == 1 and dualvar[b] == 0):
                    expand_blossom(b, True)
        label[:] = (2 * n) * [0]
        bestedge[:] = (2 * n) * [-1]
        bestslack[:] = (2 * n) * [inf]
        blossombestedges[n:] = n * [None]
        for row in allowed:
            row[:] = n * [False]
        queue[:] = []

    # Convert remote endpoints to plain vertex ids.
    for v in range(n):
        if mate[v] >= 0:
            mate[v] = mate[v] // n
    for v in range(n):
        assert mate[v] == -1 or mate[mate[v]] == v
    return mate


def max_weight_matching(edges: Sequence[Edge],
                        maxcardinality: bool = False,
                        debug: bool = False) -> List[int]:
    """Compute a maximum-weight matching on a general graph.

    ``edges`` is a list of ``(i, j, weight)`` with ``i != j``; at most
    one edge per vertex pair.  Returns ``mate`` with ``mate[v]`` the
    partner of ``v`` or ``-1`` if ``v`` is single.  With
    ``maxcardinality=True`` the matching has maximum cardinality first,
    maximum weight among those second.  ``debug=True`` re-enables the
    dense internal invariant assertions (slow; for tests).

    The graph goes onto the dense kernel as a weight matrix whose
    absent edges are masked out of every vertex's neighbour list.
    """
    if not edges:
        return []
    n = 0
    for (i, j, _) in edges:
        if i < 0 or j < 0 or i == j:
            raise ValueError(f"bad edge ({i}, {j})")
        if i >= n:
            n = i + 1
        if j >= n:
            n = j + 1
    # Integral weights keep exact integer arithmetic; any float weight
    # puts the whole graph in float arithmetic.
    integral = all(type(w) is int or isinstance(w, Integral)
                   for (_, _, w) in edges)
    cast = int if integral else float
    w4: List[List[float]] = [n * [0] for _ in range(n)]
    adj: List[List[int]] = [[] for _ in range(n)]
    for (i, j, w) in edges:
        w4[i][j] = w4[j][i] = 4 * cast(w)
        adj[i].append(j)
        adj[j].append(i)
    for row in adj:
        row.sort()
    return _blossom(w4, adj, integral, maxcardinality, debug)


def _quantise(costs: Dict[Tuple[int, int], float],
              n_vertices: int) -> Dict[Tuple[int, int], int]:
    """Validate a pair-cost map and round it onto the integer grid.

    Every key must be a pair ``(i, j)`` with ``0 <= i < j < n_vertices``
    and every cost finite and non-negative; the error names the first
    offending pair.  The grid is ``max_cost / 1e12``, fine enough that
    rounding never reorders two schedules that differ by more than one
    part in 1e12; ``round`` is half-to-even.
    """
    max_cost = 0.0
    for (i, j), cost in costs.items():
        if not 0 <= i < j < n_vertices:
            raise ValueError(f"bad pair ({i}, {j}) for {n_vertices} vertices")
        if not 0.0 <= cost < inf:
            raise ValueError(f"cost of pair ({i}, {j}) must be finite and "
                             f"non-negative, got {cost}")
        if cost > max_cost:
            max_cost = cost
    grid = max_cost / 1e12 if max_cost > 0.0 else 1.0
    return {pair: round(cost / grid) for pair, cost in costs.items()}


def _small_complete_matching(
        int_costs: Dict[Tuple[int, int], int],
        candidates: List[Tuple[Tuple[int, int], ...]],
) -> Optional[Set[Tuple[int, int]]]:
    """Enumerate the perfect matchings of a tiny complete graph.

    Returns the matching :func:`min_weight_perfect_matching` would
    return, computed without the blossom machinery: pick the candidate
    with the unique smallest quantised total.  On a tie (possible only
    when two matchings agree to one part in 1e12) returns ``None`` so
    the caller falls through to the blossom, whose tie-break this
    shortcut must not second-guess.
    """
    best: Optional[Tuple[Tuple[int, int], ...]] = None
    best_total = 0
    tied = False
    for candidate in candidates:
        total = sum(int_costs[pair] for pair in candidate)
        if best is None or total < best_total:
            best, best_total, tied = candidate, total, False
        elif total == best_total:
            tied = True
    if tied or best is None:
        return None
    return set(best)


def min_weight_perfect_matching(
        costs: Dict[Tuple[int, int], float],
        n_vertices: int,
        debug: bool = False) -> Set[Tuple[int, int]]:
    """Minimum-weight perfect matching on a graph with float costs.

    ``costs`` maps unordered pairs ``(i, j)`` with ``i < j`` to a
    finite, non-negative cost; ``n_vertices`` must be even and a
    perfect matching must exist (in the scheduler the graph is
    complete, so it always does — the error otherwise names the
    unmatched vertices).  Returns the matching as a set of ``(i, j)``
    pairs with ``i < j``.

    Implementation: quantise the costs onto an integer grid once,
    transform cost -> (max + 1 - cost) so smaller cost means bigger
    weight, and run the dense blossom kernel in max-cardinality mode.
    Complete graphs on 2/4/6 vertices (the bulk of the trace
    scheduler's snapshots) are solved by enumerating their 1/3/15
    perfect matchings on the same integer costs, falling back to the
    blossom on a quantised tie — the returned matching is identical
    either way.  Ties are broken by the kernel's ascending scans, so
    the result does not depend on the order of ``costs``.
    """
    if n_vertices % 2 != 0:
        raise ValueError(f"perfect matching needs an even vertex count, "
                         f"got {n_vertices}")
    if n_vertices == 0:
        return set()
    int_costs = _quantise(costs, n_vertices)

    complete = len(int_costs) == n_vertices * (n_vertices - 1) // 2
    if complete:
        candidates = _SMALL_PERFECT_MATCHINGS.get(n_vertices)
        if candidates is not None:
            small = _small_complete_matching(int_costs, candidates)
            if small is not None:
                return small

    top = max(int_costs.values(), default=0) + 1
    w4: List[List[float]] = [n_vertices * [0] for _ in range(n_vertices)]
    for (i, j), cost in int_costs.items():
        w4[i][j] = w4[j][i] = 4 * (top - cost)
    if complete:
        adj: List[List[int]] = n_vertices * [list(range(n_vertices))]
    else:
        adj = [[] for _ in range(n_vertices)]
        for (i, j) in sorted(int_costs):
            adj[i].append(j)
            adj[j].append(i)
    mate = _blossom(w4, adj, True, True, debug)
    matching = {(v, mate[v]) for v in range(n_vertices) if v < mate[v]}
    if len(matching) * 2 != n_vertices:
        matched_vertices = {v for pair in matching for v in pair}
        unmatched = sorted(set(range(n_vertices)) - matched_vertices)
        raise ValueError(
            "graph admits no perfect matching: "
            f"vertices {unmatched} left unmatched")
    return matching


def matching_cost(matching: Set[Tuple[int, int]],
                  costs: Dict[Tuple[int, int], float]) -> float:
    """Total cost of a matching under a pair-cost map.

    Accumulates in sorted pair order: summing in the set's hash order
    would make the low bits of the total an artefact of insertion
    history (RPR405).
    """
    total = 0.0
    for (i, j) in sorted(matching):
        key = (i, j) if i < j else (j, i)
        total += costs[key]
    return total
