"""Ordered-tree edit distance with unit costs, plus an exhaustive oracle.

The fast path is Zhang and Shasha's keyroot dynamic program over
postorder-numbered trees (insert/delete/relabel, each cost 1), made
leaf-aware. A leaf x against a subtree T costs |T| - [label(x) in
labels(T)]: x maps onto one node of T, free if that node carries x's label,
and the rest of T is inserted. The same holds with the two sides swapped.
So every subtree distance with a leaf on either side is filled in before
the DP, from postorder sizes and per-subtree label sets (bit masks over
integer label codes shared by the pair), and only pairs of non-leaf
keyroots get a forest table. Schema trees are shallow and wide, so most of
their keyroots are leaves; a single-node tree (the negative outcome) needs
no table at all.

The oracle enumerates every order- and ancestor-preserving node mapping
between the two trees and takes the cheapest; it exists purely to
cross-check the dynamic program on small trees and shares no code with it.
"""

from __future__ import annotations

from itertools import islice

from .schema import LabeledTree


def _postorder(root: LabeledTree, codes: dict[str, int]) -> tuple[list[int], list[int], list[int]]:
    """Per node in postorder: its label code, the index of its leftmost
    leaf, and the bit set of the label codes in its subtree. `codes` gives
    each label its code when first seen."""
    code: list[int] = []
    lml: list[int] = []
    labels: list[int] = []

    def visit(node: LabeledTree) -> int:
        first = len(code)  # a subtree's leftmost leaf is its first node in postorder
        bits = 0
        for child in node.children:
            bits |= visit(child)
        c = codes.setdefault(node.label, len(codes))
        bits |= 1 << c
        code.append(c)
        lml.append(first)
        labels.append(bits)
        return bits

    visit(root)
    return code, lml, labels


def _inner_keyroots(lml: list[int]) -> list[int]:
    """The keyroots that are not leaves, ascending. A keyroot is the
    highest node on its leftmost path."""
    highest: dict[int, int] = {}
    for x, l in enumerate(lml):
        highest[l] = x
    return sorted(x for x in highest.values() if lml[x] != x)


def tree_edit_distance(a: LabeledTree, b: LabeledTree) -> int:
    """Minimum number of unit-cost insertions, deletions, and relabelings.

    Distances are kept shifted by the size of B's side: td[x][y] holds
    d(A_x, B_y) - |B_y|, and a forest row holds fd[y] - y, where fd[y] is
    the distance to B's forest of postorder nodes lj .. lj + y - 1. In
    those terms inserting a node costs nothing and the closed form of a
    leaf row is minus one where the leaf's label occurs in B_y.
    """
    codes: dict[str, int] = {}
    ac, al, am = _postorder(a, codes)
    bc, bl, bm = _postorder(b, codes)
    td: list[list[int]] = []
    for x, l in enumerate(al):
        if l == x:
            c = ac[x]
            td.append([-(m >> c & 1) for m in bm])
        else:
            # Exact in the leaf columns; the forest tables below overwrite
            # the others before any table reads them.
            size, m = x - l + 1, am[x]
            td.append([size - 1 - (m >> c & 1) for c in bc])

    columns = []
    for j in _inner_keyroots(bl):
        lj = bl[j]
        # Per forest column y >= 1: the column of the forest left of B_y,
        # which is 0 exactly on j's leftmost path.
        before = [bl[y] - lj for y in range(lj, j + 1)]
        path = [y for y in range(lj + 1, j + 1) if bl[y] == lj]
        columns.append((j, lj, before, path, bc[lj:j + 1]))

    for i in _inner_keyroots(al):
        li = al[i]
        for j, lj, before, path, codes_j in columns:
            # Row x is A's forest li .. li + x - 1 against B's forests. Each
            # cell is the least of: delete (the cell above plus one), insert
            # (the cell to the left; free when shifted) and a match. With
            # integers, min(up + 1, v) is `up + 1 if up < v else v`.
            prev = [0] * (j - lj + 2)  # the empty forest: y insertions
            rows = [prev]
            for ax in range(li, i + 1):
                x = ax - li + 1
                td_x = td[ax]
                left = x  # x deletions against the empty forest
                cur = [x]
                append = cur.append
                p = al[ax] - li  # the row of the forest left of A_ax
                if p:
                    # A_ax is a whole tree after forest row p: match it
                    # with B_y after the forest left of B_y.
                    row_p = rows[p]
                    for up, q, t in zip(islice(prev, 1, None), before, td_x[lj:j + 1]):
                        v = row_p[q] + t
                        if up < v:
                            v = up + 1
                        if v < left:
                            left = v
                        append(left)
                else:
                    # ax is on i's leftmost path. Where y is on j's, both
                    # forests are trees: match their roots, relabelling
                    # ax unless the codes agree, after the diagonal cell.
                    c = ac[ax]
                    diag = x - 1
                    for up, q, t, cy in zip(islice(prev, 1, None), before, td_x[lj:j + 1], codes_j):
                        v = t if q else diag - (c == cy)
                        diag = up
                        if up < v:
                            v = up + 1
                        if v < left:
                            left = v
                        append(left)
                    # On j's path |B_y| = y, so the shifted forest cell is
                    # the shifted tree distance. Leaf rows keep their
                    # closed form.
                    if ax != li:
                        for y in path:
                            td_x[y] = cur[y - lj + 1]
                rows.append(cur)
                prev = cur
    return td[-1][-1] + len(bl)


def _preorder(root: LabeledTree) -> tuple[list[str], list[set[int]]]:
    """Preorder labels and, per node, the set of its ancestor indices."""
    labels: list[str] = []
    ancestors: list[set[int]] = []

    def rec(node: LabeledTree, anc: set[int]) -> None:
        idx = len(labels)
        labels.append(node.label)
        ancestors.append(set(anc))
        child_anc = anc | {idx}
        for child in node.children:
            rec(child, child_anc)

    rec(root, set())
    return labels, ancestors


def ted_oracle(a: LabeledTree, b: LabeledTree) -> int:
    """Exhaustive minimum over all valid edit mappings; small trees only.

    A mapping pairs nodes one-to-one preserving both preorder position and
    the ancestor relation; its cost is one per unmapped node on either side
    plus one per mapped pair with differing labels. The minimum over all
    mappings is the edit distance.
    """
    a_labels, a_anc = _preorder(a)
    b_labels, b_anc = _preorder(b)
    na, nb = len(a_labels), len(b_labels)
    best = na + nb  # empty mapping: delete everything, insert everything

    def rec(ai: int, bj_min: int, pairs: list[tuple[int, int]], relabels: int) -> None:
        nonlocal best
        mapped = len(pairs)
        # Even mapping every remaining node for free cannot beat `best`.
        remaining = min(na - ai, nb - bj_min)
        floor = relabels + (na - mapped - remaining) + (nb - mapped - remaining)
        if floor >= best:
            return
        if ai == na:
            cost = relabels + (na - mapped) + (nb - mapped)
            best = min(best, cost)
            return
        rec(ai + 1, bj_min, pairs, relabels)
        for bj in range(bj_min, nb):
            ok = True
            for (pi, pj) in pairs:
                if ((pi in a_anc[ai]) != (pj in b_anc[bj])):
                    ok = False
                    break
            if ok:
                pairs.append((ai, bj))
                rec(ai + 1, bj + 1, pairs, relabels + (a_labels[ai] != b_labels[bj]))
                pairs.pop()

    rec(0, 0, [], 0)
    return best


def random_tree(rng, max_nodes: int, labels: tuple[str, ...] = ("x", "y", "z")) -> LabeledTree:
    """Uniformly-shaped random tree with 1..max_nodes nodes for testing."""
    n = int(rng.integers(1, max_nodes + 1))
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        children[parent].append(i)
    node_labels = [str(rng.choice(labels)) for _ in range(n)]

    def build(i: int) -> LabeledTree:
        return LabeledTree(node_labels[i], tuple(build(c) for c in children[i]))

    return build(0)
