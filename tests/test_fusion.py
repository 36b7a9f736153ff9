import numpy as np
import pytest

from seasonvpc import (
    FusedResult,
    GlobalCandidate,
    Viewpoint,
    fuse,
    fused_results,
    partition_by_location,
    top_x,
)

from seasonvpc.fusion import PARTIAL_WIDTH, _partial_order

from conftest import line_training_set


def _partition(n=3):
    train = line_training_set(n, spacing=100.0)  # one class per image
    return partition_by_location(train, 50.0).summary(train)


def _cand(slot, cid, prob, x=0.0):
    return GlobalCandidate(source_classifier=slot, class_id=cid, probability=prob,
                           location=Viewpoint(x, 0.0))


def _ranked(probs, parts, x, slots=None):
    probs = np.array([probs])
    slots = list(range(len(parts))) if slots is None else slots
    return list(fused_results(probs, top_x(probs, x), slots, parts)[0].ranked)


def test_top_x_sorts_by_probability():
    part = _partition(3)
    out = _ranked([0.1, 0.7, 0.2], [part], 2)
    assert [c.class_id for c in out] == [1, 2]
    assert [c.probability for c in out] == [0.7, 0.2]
    assert out[0].location == part.classes[1].representative


def test_top_x_with_x_at_least_k_returns_all():
    assert top_x(np.array([[0.5, 0.2, 0.3]]), 10).tolist() == [[0, 2, 1]]


def test_top_x_tie_breaks_to_lower_class_id():
    assert top_x(np.array([[0.25, 0.25, 0.25, 0.25]]), 4).tolist() == [[0, 1, 2, 3]]


def test_top_x_tie_breaks_to_lower_slot_then_class():
    a, b = _partition(2), _partition(3)
    out = _ranked([0.1, 0.45, 0.45, 0.1, 0.45], [a, b], 5, slots=[1, 3])
    assert [(c.source_classifier, c.class_id) for c in out] == \
        [(1, 1), (3, 0), (3, 2), (1, 0), (3, 1)]
    assert out[1].location == b.classes[0].representative


def test_top_x_validates_sizes():
    part = _partition(3)
    with pytest.raises(ValueError):
        _ranked([0.5, 0.5], [part], 1)
    with pytest.raises(ValueError):
        top_x(np.array([[1 / 3] * 3]), 0)


def test_top_x_rejects_invalid_probabilities():
    for bad in (np.nan, np.inf, -0.1, 1.5):
        with pytest.raises(ValueError):
            top_x(np.array([[0.5, 0.5], [0.2, bad]]), 1)


def _stable_top(probs, x):
    return np.argsort(-probs, axis=1, kind="stable")[:, :x]


def _tie_heavy_rows(rng, n, c):
    """Rows whose ties straddle the x-th position: values on a coarse grid,
    a column every third holding one constant (that also appears elsewhere in
    its row), and every third row all equal."""
    p = rng.integers(0, 6, size=(n, c)) / 5.0
    p[:, ::3] = 0.6
    p[2::3] = 0.4
    p[1::4, 5::7] = rng.random((len(p[1::4]), len(range(5, c, 7))))
    return p


@pytest.mark.parametrize("c", [9, 20, 79, 80, 81, 400])
def test_top_x_equals_stable_argsort_on_ties(c):
    rng = np.random.default_rng(c)
    for x in sorted({1, 2, 3, 10, c // PARTIAL_WIDTH, c - 1, c, c + 3} - {0}):
        for n in (1, 2, 3, 40):
            p = _tie_heavy_rows(rng, n, c)
            assert np.array_equal(top_x(p, x), _stable_top(p, x)), (n, x)
            r = rng.dirichlet(np.ones(c), size=n)
            assert np.array_equal(top_x(r, x), _stable_top(r, x)), (n, x)


def test_partial_order_equals_stable_argsort_for_every_x():
    """The selection path on its own, for widths top_x sorts in full too."""
    rng = np.random.default_rng(1)
    for c in (2, 3, 8, 15, 16, 17, 50):
        for x in range(1, c):
            for p in (_tie_heavy_rows(rng, 30, c), rng.dirichlet(np.ones(c), size=30),
                      np.full((3, c), 1 / c)):
                assert np.array_equal(_partial_order(-p, x), _stable_top(p, x)), (c, x)


def test_fuse_single_classifier_is_identity():
    part = _partition(3)
    lst = _ranked([0.6, 0.1, 0.3], [part], 3)
    fused = fuse([lst], 3)
    assert list(fused.ranked) == lst


def test_fuse_hand_merge():
    a = [_cand(0, 0, 0.9)]
    b = [_cand(1, 0, 0.8), _cand(1, 1, 0.7)]
    fused = fuse([a, b], 2)
    assert [(c.source_classifier, c.class_id, c.probability) for c in fused.ranked] == [
        (0, 0, 0.9), (1, 0, 0.8),
    ]


def test_fuse_keeps_duplicates():
    a = [_cand(0, 2, 0.5, x=7.0)]
    b = [_cand(1, 4, 0.5, x=7.0)]  # same place, different classifier
    fused = fuse([a, b], 2)
    assert len(fused.ranked) == 2
    assert fused.ranked[0].source_classifier == 0  # tie: lower slot first


def test_fuse_rejects_empty():
    with pytest.raises(ValueError):
        fuse([], 3)
    with pytest.raises(ValueError):
        fuse([[], []], 3)


def test_fused_result_rejects_increasing_probabilities():
    with pytest.raises(ValueError):
        FusedResult(ranked=(_cand(0, 0, 0.2), _cand(0, 1, 0.9)))


def _random_lists(rng):
    n_classifiers = int(rng.integers(1, 5))
    lists = []
    for slot in range(n_classifiers):
        k = int(rng.integers(1, 6))
        probs = rng.dirichlet(np.ones(k))
        lists.append([
            _cand(slot, cid, float(p), x=float(rng.normal())) for cid, p in enumerate(probs)
        ])
    return lists


def test_fuse_properties_on_random_ensembles():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        lists = _random_lists(rng)
        x = int(rng.integers(1, 8))
        fused = fuse(lists, x)
        total = sum(len(l) for l in lists)
        assert len(fused.ranked) == min(x, total)
        probs = [c.probability for c in fused.ranked]
        assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_fuse_invariant_under_input_order():
    rng = np.random.default_rng(1)
    for _ in range(50):
        lists = _random_lists(rng)
        x = int(rng.integers(1, 8))
        fused = fuse(lists, x)
        perm = [lists[i] for i in rng.permutation(len(lists))]
        assert fuse(perm, x) == fused  # slot ids travel with candidates
