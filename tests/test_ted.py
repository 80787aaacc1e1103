from dataclasses import replace

import numpy as np

from cbrs.schema import BLOOD_GROUPS, Contact, LabeledTree, ParsedRequest, ParseOutcome, to_tree
from cbrs.ted import random_tree, ted_oracle, tree_edit_distance
from conftest import random_outcome


def T(label, *children):
    return LabeledTree(label, tuple(children))


def test_identical_trees_zero():
    t = T("a", T("b"), T("c", T("d")))
    assert tree_edit_distance(t, t) == 0


def test_single_node_relabel():
    assert tree_edit_distance(T("x"), T("y")) == 1


def test_single_insert_delete():
    assert tree_edit_distance(T("a"), T("a", T("b"))) == 1
    assert tree_edit_distance(T("a", T("b")), T("a")) == 1


def test_known_small_case():
    # Replace one leaf and add another: relabel c->x plus insert y.
    a = T("r", T("b"), T("c"))
    b = T("r", T("b"), T("x"), T("y"))
    assert tree_edit_distance(a, b) == 2


def test_oracle_small_cases():
    assert ted_oracle(T("x"), T("y")) == 1
    assert ted_oracle(T("a"), T("a", T("b"))) == 1
    assert ted_oracle(T("a", T("b"), T("c")), T("a", T("c"), T("b"))) == 2


def test_matches_oracle_on_200_random_pairs():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        a = random_tree(rng, max_nodes=6)
        b = random_tree(rng, max_nodes=6)
        assert tree_edit_distance(a, b) == ted_oracle(a, b)


def test_metric_axioms_on_samples():
    rng = np.random.default_rng(99)
    trees = [random_tree(rng, max_nodes=6) for _ in range(30)]
    for t in trees:
        assert tree_edit_distance(t, t) == 0
    for _ in range(100):
        a, b, c = (trees[int(i)] for i in rng.integers(0, len(trees), size=3))
        dab = tree_edit_distance(a, b)
        dba = tree_edit_distance(b, a)
        assert dab == dba
        assert dab <= tree_edit_distance(a, c) + tree_edit_distance(c, b)


def test_ordered_semantics():
    # Swapping two differing children costs two relabels in an ordered tree.
    a = T("r", T("x"), T("y"))
    b = T("r", T("y"), T("x"))
    assert tree_edit_distance(a, b) == 2


def test_schema_tree_vs_negative_distance():
    gold = to_tree(ParseOutcome.positive(ParsedRequest(blood_group="O+")))
    neg = to_tree(ParseOutcome.negative())
    # Delete all but the root, then relabel the root.
    assert tree_edit_distance(gold, neg) == gold.size()


# --------------------------------------------------------------------------
# Cross-checks of the leaf-aware DP against the plain keyroot DP it replaced
# and against the oracle, on trees shaped like the schema's.


def _reference_ted(a, b):
    """Zhang-Shasha with a forest table for every keyroot pair, leaves
    included: `tree_edit_distance` before it was made leaf-aware."""

    def annotate(root):
        nodes, lml = [], []

        def rec(node):
            first = None
            for child in node.children:
                ci = rec(child)
                if first is None:
                    first = lml[ci]
            idx = len(nodes)
            nodes.append(node)
            lml.append(first if first is not None else idx)
            return idx

        rec(root)
        return nodes, lml

    def keyroots(lml):
        highest = {}
        for i, l in enumerate(lml):
            highest[l] = i
        return sorted(highest.values())

    an, al = annotate(a)
    bn, bl = annotate(b)
    td = [[0] * len(bn) for _ in range(len(an))]
    for i in keyroots(al):
        for j in keyroots(bl):
            m = i - al[i] + 2
            n = j - bl[j] + 2
            ioff = al[i] - 1
            joff = bl[j] - 1
            fd = [[0] * n for _ in range(m)]
            for x in range(1, m):
                fd[x][0] = fd[x - 1][0] + 1
            for y in range(1, n):
                fd[0][y] = fd[0][y - 1] + 1
            for x in range(1, m):
                for y in range(1, n):
                    if al[i] == al[x + ioff] and bl[j] == bl[y + joff]:
                        relabel = 0 if an[x + ioff].label == bn[y + joff].label else 1
                        fd[x][y] = min(fd[x - 1][y] + 1, fd[x][y - 1] + 1, fd[x - 1][y - 1] + relabel)
                        td[x + ioff][y + joff] = fd[x][y]
                    else:
                        p = al[x + ioff] - 1 - ioff
                        q = bl[y + joff] - 1 - joff
                        fd[x][y] = min(fd[x - 1][y] + 1, fd[x][y - 1] + 1, fd[p][q] + td[x + ioff][y + joff])
    return td[-1][-1]


def _perturbed(outcome, rng):
    """Up to three parser-like mistakes: a wrong, dropped or extra field,
    or a flipped flag."""
    if outcome.is_negative:
        return random_outcome(rng, negative_rate=0.0) if rng.random() < 0.5 else outcome
    req = outcome.request
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 12))
        if kind == 0:
            req = replace(req, blood_group=str(rng.choice(BLOOD_GROUPS)))
        elif kind == 1:
            req = replace(req, contacts=req.contacts[1:])
        elif kind == 2:
            req = replace(req, location_markers=req.location_markers + ("mirpur",))
        elif kind == 3:
            req = replace(req, location_markers=())
        elif kind == 4:
            req = replace(req, patient=replace(req.patient, name=""), hospital_name="ward")
        elif kind == 5:
            req = replace(req, contacts=req.contacts + (Contact(name="rahim", contact_numbers=("01711111111",)),))
        elif kind == 6:
            return ParseOutcome.negative()
    return ParseOutcome.positive(req)


def _schema_pair(rng):
    """Two trees as `parsing_score` meets them: a random outcome against a
    perturbed copy, another random outcome, or a single node."""
    gold = random_outcome(rng, negative_rate=0.1)
    roll = rng.random()
    if roll < 0.7:
        pred = _perturbed(gold, rng)
    elif roll < 0.9:
        pred = random_outcome(rng, negative_rate=0.1)
    else:
        return to_tree(gold), T(str(rng.choice(("negative", "request", "blood_group=O+", "0"))))
    a, b = to_tree(gold), to_tree(pred)
    return (a, b) if rng.random() < 0.5 else (b, a)


def _small_schema_tree(rng, budget=8):
    """A schema tree cut to at most `budget` nodes: the root and, in order,
    a random choice of its field subtrees that fit."""
    tree = to_tree(random_outcome(rng, negative_rate=0.1))
    kept, used = [], 1
    for child in tree.children:
        if rng.random() < 0.4 and used + child.size() <= budget:
            kept.append(child)
            used += child.size()
    return LabeledTree(tree.label, tuple(kept))


def test_schema_shaped_pairs_match_the_plain_dp():
    rng = np.random.default_rng(2024)
    single = empty_list = 0
    for _ in range(2000):
        a, b = _schema_pair(rng)
        assert tree_edit_distance(a, b) == _reference_ted(a, b)
        single += min(a.size(), b.size()) == 1
        empty_list += any(not c.children and "=" not in c.label for c in a.children + b.children)
    # The mix covers single-node trees, empty lists and ordinary pairs.
    assert 200 < single < 800 and empty_list > 800, (single, empty_list)


def test_random_trees_match_the_plain_dp():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        a = random_tree(rng, max_nodes=12)
        b = random_tree(rng, max_nodes=12)
        assert tree_edit_distance(a, b) == _reference_ted(a, b)


def test_small_schema_shaped_trees_match_the_oracle():
    rng = np.random.default_rng(8)
    for _ in range(150):
        a, b = _small_schema_tree(rng), _small_schema_tree(rng)
        assert a.size() <= 8 and b.size() <= 8
        assert tree_edit_distance(a, b) == ted_oracle(a, b)


def test_leaf_against_subtree_closed_form():
    t = T("request", T("blood_group=O+"), T("patient", T("name=rahim"), T("gender=M")))
    assert tree_edit_distance(T("name=rahim"), t) == t.size() - 1
    assert tree_edit_distance(t, T("name=karim")) == t.size()
    assert tree_edit_distance(T("negative"), T("negative")) == 0
