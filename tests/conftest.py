import contextlib
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

import latticekit as lk
import latticekit.freedist as fd
from latticekit import catalog
from latticekit import lattice as lattice_module
from latticekit import poset as poset_module
from latticekit.poset import _pack_rows

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# row-block sizes for the table builders: the default, and one so small
# that every input spans several blocks
BLOCK_CELLS = (poset_module.TABLE_BLOCK_CELLS, 16)


def table_blocks(cells):
    """Run the table builders with row blocks of ``cells`` cells."""
    return mock.patch.object(poset_module, "TABLE_BLOCK_CELLS", cells)


def reference_set_tables(sets):
    """Pair-loop reference over sets as Python ints: subset order, and the
    positions of intersections and unions."""
    index = {s: i for i, s in enumerate(sets)}
    m = len(sets)
    leq = np.zeros((m, m), dtype=bool)
    meet = np.zeros((m, m), dtype=np.int16)
    join = np.zeros((m, m), dtype=np.int16)
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            leq[i, j] = a & ~b == 0
            meet[i, j] = index[a & b]
            join[i, j] = index[a | b]
    return leq, meet, join


# lowest set bit of a byte; an empty byte reads as 0, and the candidate it
# yields then fails the bound check
_LOW_BIT = np.array([(v & -v).bit_length() - 1 for v in range(256)], dtype=np.intp)
_LOW_BIT[0] = 0


def reference_least_bounds(bounds, order):
    """Linear-extension reference for the table lookup in ``as_lattice``:
    least common bound of every pair, and the rows where one is missing.

    ``bounds[i]`` is the boolean row of elements bounding i (its up-set for
    joins, its down-set for meets).  ``order`` lists each element after
    every other element it bounds, so the first common bound of a and b in
    ``order`` is a minimal one; it is the least exactly when its own bound
    row equals the common bound row.  ``bad[a]`` is set when that check
    fails for a pair (a, b) with b >= a, or with b < a in a's row block.
    """
    n = len(order)
    rows = _pack_rows(bounds[:, order])
    block = max(1, poset_module.TABLE_BLOCK_CELLS // (n * rows.shape[1]))
    table = np.empty((n, n), dtype=np.int16)
    bad = np.zeros(n, dtype=bool)
    for start in range(0, n, block):
        stop = min(start + block, n)
        common = rows[start:stop, None, :] & rows[None, start:, :]
        word = (common != 0).argmax(axis=2)[..., None]
        first = np.take_along_axis(common, word, axis=2).view(np.uint8)
        byte = (first != 0).argmax(axis=2)[..., None]
        bit = _LOW_BIT[np.take_along_axis(first, byte, axis=2)]
        candidate = order[(64 * word + 8 * byte + bit)[..., 0]]
        least = (rows[candidate] == common).all(axis=2)
        table[start:stop, start:] = candidate
        table[start:, start:stop] = candidate.T
        bad[start:stop] = ~least.all(axis=1)
    return table, bad


def reference_first_bound_tables(p):
    """``as_lattice`` by the first common bound in a linear extension:
    (meet, join, bottom, top), or the NotALattice of the first flagged row."""
    topo = np.array(p.topo_order)
    join, join_bad = reference_least_bounds(p.leq, topo)
    meet, meet_bad = reference_least_bounds(p.leq.T, topo[::-1])
    bad = np.nonzero(join_bad | meet_bad)[0]
    if bad.size:
        lattice_module._raise_first_failure(p, int(bad[0]))
    bottom, top = 0, 0
    for a in range(p.n):
        bottom = int(meet[bottom, a])
        top = int(join[top, a])
    return meet, join, bottom, top


def mask_indices(m):
    """The set bits of a Python int, lowest first."""
    return tuple(i for i in range(m.bit_length()) if m >> i & 1)


def row_ints(rows):
    """Packed uint64 rows (little-endian words) as Python ints."""
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def reference_order_ideal_masks(p, cap):
    """Depth-first down-set enumeration over Python int masks: along a
    linear extension, include each element or exclude it and block its
    up-set; sorted by (size, index tuple)."""
    order, n = p.topo_order, p.n
    up = [sum(1 << j for j in range(n) if p.leq[i, j]) for i in range(n)]
    out, stack = [], [(0, 0, 0)]
    while stack:
        pos, cur, blocked = stack.pop()
        while pos < n and (blocked >> order[pos]) & 1:
            pos += 1
        if pos == n:
            out.append(cur)
            if len(out) > cap:
                raise lk.SizeLimitExceeded(
                    f"more than {cap} order ideals; raise the cap to proceed"
                )
            continue
        t = order[pos]
        stack.append((pos + 1, cur, blocked | up[t]))
        stack.append((pos + 1, cur | (1 << t), blocked))
    out.sort(key=lambda m: (bin(m).count("1"), mask_indices(m)))
    return out


def reference_ideal_labels(p, masks, names):
    """The cover labels of J(P) by a loop over every (down-set, element)
    pair: I < I + {x} is labeled x when x is outside I and its strict
    down-set is inside."""
    down = [sum(1 << j for j in range(p.n) if p.leq[j, i]) for i in range(p.n)]
    index = {mask: i for i, mask in enumerate(masks)}
    labels = {}
    for i, mask in enumerate(masks):
        for x in range(p.n):
            bit = 1 << x
            if mask & bit or down[x] & ~bit & ~mask:
                continue
            labels[(names[i], names[index[mask | bit]])] = p.names[x]
    return labels


def reference_stanley_steps(p, cap):
    """Stanley's gluing construction over a Python set of int masks, as
    (description, names, leq, labels) per snapshot."""
    down = [sum(1 << j for j in range(p.n) if p.leq[j, i]) for i in range(p.n)]
    minimal = set(p.minimal_indices)
    steps = []

    def name(mask):
        return "{" + ",".join(p.names[i] for i in mask_indices(mask)) + "}"

    def snapshot(description):
        if len(nodes) > cap:
            raise lk.SizeLimitExceeded(f"construction grew past {cap} nodes")
        masks = sorted(nodes, key=lambda m: (bin(m).count("1"), mask_indices(m)))
        names = [name(m) for m in masks]
        leq = np.array([[a & ~b == 0 for b in masks] for a in masks], dtype=bool).reshape(
            len(masks), len(masks)
        )
        labels = {}
        for i, j in np.argwhere(reference_covers(lk.Poset(names, leq))).tolist():
            diff = masks[j] & ~masks[i]
            if bin(diff).count("1") == 1:
                labels[(names[i], names[j])] = p.names[diff.bit_length() - 1]
        steps.append((description, tuple(names), leq, labels))

    def close_under_union(seeds):
        added, frontier = False, list(seeds)
        while frontier:
            fresh = []
            for i, u in enumerate(frontier):
                for v in frontier[i + 1:]:
                    if u | v not in nodes:
                        nodes.add(u | v)
                        fresh.append(u | v)
                        added = True
            if not fresh:
                break
            frontier = sorted(nodes)
        return added

    nodes = {0}
    for i in sorted(minimal):
        nodes |= {s | (1 << i) for s in nodes}
    snapshot(
        f"start from the minimal antichain ({len(minimal)} elements); "
        f"its down-sets form the Boolean lattice B_{len(minimal)}"
    )
    processed = set(minimal)
    while len(processed) < p.n:
        x = min(
            i for i in range(p.n)
            if i not in processed and all(j in processed for j in mask_indices(down[i] & ~(1 << i)))
        )
        base = down[x] & ~(1 << x)
        assert base in nodes
        nodes.add(down[x])
        snapshot(f"adjoin join irreducible for {p.names[x]!r} covering {name(base)}")
        above = [u for u in nodes if u != base and base & ~u == 0]
        covers = [u for u in above if not any(v != u and v & ~u == 0 for v in above)]
        if close_under_union(covers):
            snapshot(f"complete the Boolean algebra of joins above {name(base)}")
        while close_under_union(list(nodes)):
            snapshot("add missing joins")
        processed.add(x)
    return steps


def reference_verify(poset, meet, join):
    """Pair-loop reference for ``Lattice._verify`` on in-range tables:
    bounds (joins, then meets), then for a ascending the first b whose
    common upper bounds are not up(join[a, b]) (then the same for lower
    bounds and meets), then absorption, the two order equivalences and
    antisymmetry.
    Raises the NotALattice the library documents, or returns None."""
    n = poset.n
    leq = poset.leq
    table = ("<table>", "<table>")
    up = [sum(1 << j for j in range(n) if leq[i, j]) for i in range(n)]
    down = [sum(1 << j for j in range(n) if leq[j, i]) for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(n)]
    if not all(leq[a, join[a, b]] and leq[b, join[a, b]] for a, b in pairs):
        raise lk.NotALattice(table, [], "join")
    if not all(leq[meet[a, b], a] and leq[meet[a, b], b] for a, b in pairs):
        raise lk.NotALattice(table, [], "meet")

    def extremal(bounds, opposite):
        return [
            poset.names[i] for i in range(n)
            if bounds >> i & 1 and opposite[i] & bounds & ~(1 << i) == 0
        ]

    for a in range(n):
        for rows, cols, result, kind in ((up, down, join, "join"), (down, up, meet, "meet")):
            for b in range(n):
                common = rows[a] & rows[b]
                if common != rows[result[a, b]]:
                    raise lk.NotALattice(
                        (poset.names[a], poset.names[b]), extremal(common, cols), kind
                    )
    if not all(meet[a, join[a, b]] == a for a, b in pairs):
        raise lk.NotALattice(table, [], "absorption")
    if not all((meet[a, b] == b) == leq[b, a] for a, b in pairs):
        raise lk.NotALattice(table, [], "meet-order")
    if not all((join[a, b] == a) == leq[b, a] for a, b in pairs):
        raise lk.NotALattice(table, [], "join-order")
    if any(leq[a, b] and leq[b, a] for a, b in pairs if a != b):
        raise lk.NotALattice(table, [], "antisymmetry")


def reference_unequal_chain_witness(l):
    """Two maximal chains of different length, shortest and longest, walked
    along the topological order with each element's lower covers read one
    column at a time; ties go to the lowest-index lower cover."""
    p = l.poset
    short = {l.bottom_index: [l.bottom_index]}
    long = {l.bottom_index: [l.bottom_index]}
    for i in p.topo_order:
        if i == l.bottom_index:
            continue
        lows = p.lower_covers(i)
        short[i] = min((short[j] for j in lows), key=len) + [i]
        long[i] = max((long[j] for j in lows), key=len) + [i]
    return (
        [l.names[i] for i in short[l.top_index]],
        [l.names[i] for i in long[l.top_index]],
    )


def reference_join_irreducibles(l, include_bottom=False):
    """``join_irreducibles`` read off the reference cover matrix: the
    elements with exactly one lower cover (and the bottom when
    ``include_bottom``), each with its lower cover (None for the bottom)."""
    covers = reference_covers(l.poset)
    single = covers.sum(axis=0) == 1
    single[l.bottom_index] = include_bottom
    irr = np.flatnonzero(single).tolist()
    below = covers[:, irr].argmax(axis=0).tolist()
    lower = {
        l.names[i]: None if i == l.bottom_index else l.names[j] for i, j in zip(irr, below)
    }
    return lk.JoinIrreducibles(tuple(l.names[i] for i in irr), lower)


def reference_bounds(l):
    """(bottom, top) indices by folding the meet and join tables over every
    element."""
    bottom, top = 0, 0
    for a in range(l.n):
        bottom = int(l.meet[bottom, a])
        top = int(l.join[top, a])
    return bottom, top


def reference_degree(l):
    """The degree criterion of modularity through the dual: ``l`` and its
    dual both upper semimodular."""
    return lk.is_upper_semimodular(l).ok and lk.is_upper_semimodular(l.dual).ok


def reference_find_pentagon(l):
    """Pair-loop pentagon search: b ascending, c ascending above b, then
    the smallest a."""
    n = l.n
    leq = l.leq
    comparable = leq | leq.T
    for b in range(n):
        above = np.nonzero(leq[b] & ~np.eye(n, dtype=bool)[b])[0]
        for c in above:
            hit = (
                (l.meet[:, b] == l.meet[:, c])
                & (l.join[:, b] == l.join[:, c])
                & ~comparable[:, b]
                & ~comparable[:, c]
            )
            idx = np.nonzero(hit)[0]
            if idx.size:
                a = int(idx[0])
                o, i = int(l.meet[a, b]), int(l.join[a, b])
                return tuple(l.names[k] for k in (o, a, b, c, i))
    return None


def reference_find_diamond(l):
    """Pair-loop diamond search: a ascending, b > a ascending, then the
    smallest c."""
    n = l.n
    comparable = l.leq | l.leq.T
    for a in range(n):
        for b in range(a + 1, n):
            if comparable[a, b]:
                continue
            o, i = int(l.meet[a, b]), int(l.join[a, b])
            hit = (
                (l.meet[:, a] == o)
                & (l.meet[:, b] == o)
                & (l.join[:, a] == i)
                & (l.join[:, b] == i)
                & ~comparable[:, a]
                & ~comparable[:, b]
            )
            idx = np.nonzero(hit)[0]
            if idx.size:
                c = int(idx[0])
                return tuple(l.names[k] for k in (o, a, b, c, i))
    return None


def reference_interval_classes(l, *, allow_nonmodular=False):
    """Union-find reference for ``interval_classes``: merge the edges
    [a^b, b] and [a, avb] for every pair (a, b) where both are covers,
    number the classes by their smallest edge."""
    if not allow_nonmodular and not lk.is_modular(l).modular:
        raise lk.NotModular("interval classes need a modular lattice")
    covers = reference_covers(l.poset)
    pairs = [tuple(e) for e in np.argwhere(covers).tolist()]
    edge_id = {e: k for k, e in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n = l.n
    meet, join = l.meet.astype(int), l.join.astype(int)
    for a in range(n):
        for b in range(n):
            lower, upper = (int(meet[a, b]), b), (a, int(join[a, b]))
            if covers[lower] and covers[upper]:
                x, y = find(edge_id[lower]), find(edge_id[upper])
                parent[max(x, y)] = min(x, y)

    groups = {}
    for k in range(len(pairs)):
        groups.setdefault(find(k), []).append(k)
    ordered = sorted(groups.values(), key=lambda g: pairs[min(g)])
    name = lambda e: (l.names[e[0]], l.names[e[1]])
    classes = tuple(tuple(name(pairs[k]) for k in sorted(g)) for g in ordered)
    class_of = {e: i for i, cls in enumerate(classes) for e in cls}
    return lk.IntervalClassPartition(tuple(name(e) for e in pairs), class_of, classes)


def reference_modular_identity_violation(l):
    """Per-b int64 reference: the first (a, c), row-major, with b <= c and
    b v (a ^ c) != (b v a) ^ c, as names (a, b, c), or None."""
    meet, join = l.meet.astype(np.int64), l.join.astype(np.int64)
    for b in range(l.n):
        jb = join[b]
        bad = (jb[meet] != meet[jb]) & l.leq[b][None, :]
        if bad.any():
            a, c = (int(v) for v in np.argwhere(bad)[0])
            return l.names[a], l.names[b], l.names[c]
    return None


def reference_distributive_identity_violation(l, dualized=False):
    """Per-b int64 reference: the first (a, c), row-major, with
    b v (a ^ c) != (b v a) ^ (b v c) (operations swapped when
    ``dualized``), as names (a, b, c), or None."""
    meet = (l.join if dualized else l.meet).astype(np.int64)
    join = (l.meet if dualized else l.join).astype(np.int64)
    for b in range(l.n):
        jb = join[b]
        bad = jb[meet] != meet[jb][:, jb]
        if bad.any():
            a, c = (int(v) for v in np.argwhere(bad)[0])
            return l.names[a], l.names[b], l.names[c]
    return None


def reference_covers(p):
    """The transitive reduction of ``p``'s order by a float32 matmul: i ⋖ j
    when i < j and no k has i < k < j.  O(n³) time and two n² float32
    temporaries, so only an oracle."""
    lt = p.leq & ~np.eye(p.n, dtype=bool)
    ltf = lt.astype(np.float32)
    return lt & ~((ltf @ ltf) > 0.5)


def reference_is_isomorphic(p, q):
    """The recursive poset isomorphism search that the stack-based one
    replaced: the same refinement (seeded by no colour), class order and
    candidate order, on NumPy scalar reads.  Its first map is the one
    ``is_isomorphic`` must return; it recurses once per element, so keep
    it to small posets."""

    def neighbours(r):
        covers = reference_covers(r)
        return [np.flatnonzero(covers[:, i]) for i in range(r.n)], [
            np.flatnonzero(covers[i]) for i in range(r.n)
        ]

    def canon(a, b):
        table = {v: k for k, v in enumerate(sorted(set(a) | set(b)))}
        return [table[v] for v in a], [table[v] for v in b]

    if p.n != q.n:
        return None
    n = p.n
    (lp, up_p), (lq, up_q) = neighbours(p), neighbours(q)
    cp, cq = (
        [
            (int(r.leq[:, i].sum()), int(r.leq[i].sum()), len(lower[i]), len(upper[i]))
            for i in range(r.n)
        ]
        for r, lower, upper in ((p, lp, up_p), (q, lq, up_q))
    )
    cp, cq = canon(cp, cq)
    for _ in range(n):
        fold = [
            [(c[i], tuple(sorted(c[j] for j in lower[i])), tuple(sorted(c[j] for j in upper[i])))
             for i in range(n)]
            for c, lower, upper in ((cp, lp, up_p), (cq, lq, up_q))
        ]
        new_p, new_q = canon(*fold)
        if len(set(new_p) | set(new_q)) == len(set(cp) | set(cq)):
            cp, cq = new_p, new_q
            break
        cp, cq = new_p, new_q
    if sorted(cp) != sorted(cq):
        return None
    by_color = {}
    for j, c in enumerate(cq):
        by_color.setdefault(c, []).append(j)
    order = sorted(range(n), key=lambda i: (len(by_color[cp[i]]), cp[i], i))
    mapping, used = [-1] * n, [False] * n

    def extend(k):
        if k == n:
            return True
        i = order[k]
        for j in sorted(by_color[cp[i]], key=lambda j: (q.names[j] != p.names[i], j)):
            if used[j] or any(
                p.leq[i, a] != q.leq[j, mapping[a]] or p.leq[a, i] != q.leq[mapping[a], j]
                for a in order[:k]
            ):
                continue
            mapping[i], used[j] = j, True
            if extend(k + 1):
                return True
            mapping[i], used[j] = -1, False
        return False

    return {p.names[i]: q.names[mapping[i]] for i in range(n)} if extend(0) else None


def reference_lattices_isomorphic(a, b):
    """Whether some permutation of a's elements onto b's keeps the order
    both ways: every permutation is tried, element by element in index
    order, pruned only by the down-set and up-set sizes each image must
    share and by the pairs already placed.  For small lattices only."""
    if a.n != b.n:
        return False
    sizes = [list(zip(l.leq.sum(axis=0).tolist(), l.leq.sum(axis=1).tolist())) for l in (a, b)]
    leq_a, leq_b = a.leq.tolist(), b.leq.tolist()
    image = []

    def extend(i):
        if i == a.n:
            return True
        for j in range(b.n):
            if j in image or sizes[0][i] != sizes[1][j]:
                continue
            if all(
                leq_a[i][k] == leq_b[j][image[k]] and leq_a[k][i] == leq_b[image[k]][j]
                for k in range(i)
            ):
                image.append(j)
                if extend(i + 1):
                    return True
                image.pop()
        return False

    return extend(0)


def assert_order_isomorphism(iso, a, b):
    """``iso`` maps the names of ``a`` (a poset or lattice) one to one onto
    those of ``b`` and keeps the order both ways."""
    assert list(iso) == list(a.names) and sorted(iso.values()) == sorted(b.names)
    image = np.array([b.index(iso[x]) for x in a.names], dtype=np.intp)
    assert np.array_equal(a.leq, b.leq[np.ix_(image, image)])


def assert_reference_covers(p):
    """``p``'s cover arrays, both ways round, are the reference's pairs as
    read-only (2, covers) int32 arrays in row-major order (by upper, for
    the second)."""
    covers = reference_covers(p)
    for pairs, matrix in ((p.cover_arrays, covers), (p.covers_by_upper, covers.T)):
        assert pairs.dtype == np.int32 and not pairs.flags.writeable
        assert np.array_equal(pairs.reshape(2, -1), np.stack(np.nonzero(matrix)))


@contextlib.contextmanager
def bare_order_rule_forbidden():
    """Make the bare-order rule (``poset._order_covers``) raise wherever it
    would run, so that only covers a builder set with ``_set_covers``
    (or a dual took over) can be read.  Posets cut out by
    ``Poset.restrict`` (the join-irreducible posets) keep the rule by
    design; they get the reference's covers up front."""

    def forbidden(leq):
        raise AssertionError(f"the bare-order rule ran on a {len(leq)}-element poset")

    restrict = lk.Poset.restrict

    def restrict_with_covers(self, indices):
        sub = restrict(self, indices)
        poset_module._set_covers(sub, np.array(np.nonzero(reference_covers(sub))))
        return sub

    with mock.patch.object(poset_module, "_order_covers", forbidden), mock.patch.object(
        lk.Poset, "restrict", restrict_with_covers
    ):
        yield


def assert_covers_read_off(build):
    """The lattice ``build()`` returns, its dual, one of its intervals and
    the lattice with both bounds adjoined, all built while the bare-order
    rule raises, carry covers equal to the reference's."""
    with bare_order_rule_forbidden():
        l = build()
        n, names = l.n, l.names
        a = names[n // 3]
        lattices = [
            l,
            l.dual,
            lk.interval_sublattice(l, a, l.join_of(a, names[2 * n // 3])),
            lk.add_bounds(l, bottom="lo", top="hi"),
        ]
        for x in lattices:
            assert "cover_arrays" in vars(x.poset)
            assert_reference_covers(x.poset)
    return l


def reordered_lattice(l, order):
    """``l`` rebuilt through ``as_lattice`` with its elements listed in
    ``order`` (indices into ``l``)."""
    order = np.asarray(order)
    names = [l.names[i] for i in order]
    return lk.as_lattice(lk.Poset(names, l.leq[np.ix_(order, order)]))


def product_lattice(s, t):
    """The product lattice s x t, elements named ``x.y``, s-major order."""
    leq = (s.leq[:, None, :, None] & t.leq[None, :, None, :]).reshape(
        s.n * t.n, s.n * t.n
    )
    names = [f"{x}.{y}" for x in s.names for y in t.names]
    return lk.as_lattice(lk.Poset(names, leq))


@st.composite
def searched_lattices(draw, factors=(None, catalog.diamond, catalog.pentagon)):
    """J(P) of a random poset on at most 5 points, or M3 x J(P) or
    N5 x J(P) with P on at most 3 points (at most 40 elements), with its
    elements listed in a random order and its tables built in row blocks
    of a drawn size.  ``factors`` restricts the left factor (None for J(P)
    alone)."""
    factor = draw(st.sampled_from(factors))
    k = draw(st.integers(min_value=1, max_value=5 if factor is None else 3))
    names = [f"x{i}" for i in range(k)]
    covers = [
        (names[i], names[j])
        for i in range(k)
        for j in range(i + 1, k)
        if draw(st.booleans())
    ]
    with table_blocks(draw(st.sampled_from(BLOCK_CELLS))):
        l = lk.ideals_lattice(lk.build_poset(names, covers, warn_redundant=False)).lattice
        if factor is not None:
            l = product_lattice(factor(), l)
        return reordered_lattice(l, draw(st.permutations(range(l.n))))


def chain_lattice(k):
    return lk.as_lattice(catalog.chain_poset(k))


def diamond_lattice(k):
    """M_k: a bottom, k atoms and a top."""
    atoms = [f"a{i}" for i in range(k)]
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    return lk.as_lattice(lk.build_poset(["0", *atoms, "1"], covers))


# more than 64 join-irreducibles (and meet-irreducibles): rows wider than a word
WIDE = {"chain200": lambda: chain_lattice(200), "M100": lambda: diamond_lattice(100)}


CATALOG = {
    "pentagon": catalog.pentagon,
    "diamond": catalog.diamond,
    "chain4": lambda: lk.as_lattice(catalog.chain_poset(4)),
    "B4": lambda: catalog.boolean_lattice(4),
    "D60": lambda: catalog.divisor_lattice(60),
    "D72": lambda: catalog.divisor_lattice(72),
    "free3": lambda: fd.generate_lattice(3),
    "M3xN5": lambda: product_lattice(catalog.diamond(), catalog.pentagon()),
    **{
        f"random{k}": lambda k=k: catalog.random_lattice(random.Random(k), max_size=16)
        for k in range(12)
    },
}


@pytest.fixture(scope="session")
def case_n1_spec():
    return lk.load_spec(FIXTURES / "case_n1.json")


@pytest.fixture(scope="session")
def case_n2_spec():
    return lk.load_spec(FIXTURES / "case_n2.json")


@pytest.fixture(scope="session")
def case_n1(case_n1_spec):
    return lk.reconstruct(case_n1_spec)


@pytest.fixture(scope="session")
def case_n2(case_n2_spec):
    return lk.reconstruct(case_n2_spec)


@pytest.fixture(scope="session")
def pentagon():
    return catalog.pentagon()


@pytest.fixture(scope="session")
def diamond():
    return catalog.diamond()


@pytest.fixture(scope="session")
def b3():
    return catalog.boolean_lattice(3)


@pytest.fixture(scope="session")
def d12():
    return catalog.divisor_lattice(12)


def length_three_lattices():
    """J(P) over the five 3-element posets: all distributive of length 3."""
    return {
        name: lk.ideals_lattice(p).lattice
        for name, p in catalog.three_element_posets().items()
    }


def distributive_fixture_lattices(case_n1, case_n2):
    """Every bundled distributive lattice, by name."""
    import latticekit.freedist as fd

    out = {f"B{k}": catalog.boolean_lattice(k) for k in range(1, 5)}
    out["D12"] = catalog.divisor_lattice(12)
    for name, l in length_three_lattices().items():
        out[f"len3_{name}"] = l
    for k in (2, 3):
        out[f"free{k}_restricted"] = fd.generate_lattice(k)
        out[f"free{k}_extended"] = fd.generate_lattice(k, extended=True)
    out["case_n2"] = case_n2.lattice
    out["case_n1"] = case_n1.lattice
    return out


def reference_dedekind_count(n):
    """D(n) by counting the antichains of nonempty clause masks: a DFS in
    ascending mask order whose identical suffix subproblems are shared,
    plus the one antichain holding the empty clause."""
    if n == 0:
        return 2
    incomp = fd._incomparability_masks(n)
    memo = {}

    def count(avail):
        if avail == 0:
            return 1
        cached = memo.get(avail)
        if cached is not None:
            return cached
        low = avail & -avail
        rest = avail ^ low
        r = count(rest) + count(rest & incomp[low.bit_length() - 1])
        memo[avail] = r
        return r

    return count((1 << ((1 << n) - 1)) - 1) + 1


def reference_truth_table(e):
    """``MonotoneElement.truth_table`` by testing every clause at every
    one of the 2^n assignments."""
    tt = 0
    for a in range(1 << e.n):
        if any(c & ~a == 0 for c in e.clauses):
            tt |= 1 << a
    return tt


def reference_monotone_function_count(n):
    """Brute-force D(n) that tests every pair of assignments a < a + 2^d
    on its own: n·2^(n-1) passes over all 2^(2^n) truth tables."""
    size = 1 << n
    funcs = np.arange(1 << size, dtype=np.uint32)
    keep = np.ones(funcs.shape, dtype=bool)
    for d in range(n):
        for a in range(size):
            if a & (1 << d):
                continue
            b = a | (1 << d)
            fa = (funcs >> np.uint32(a)) & 1
            fb = (funcs >> np.uint32(b)) & 1
            keep &= ~((fa == 1) & (fb == 0))
    return int(keep.sum())
