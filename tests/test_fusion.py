import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from seasonvpc import (
    FusedResult,
    GlobalCandidate,
    Ranking,
    Viewpoint,
    fuse,
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
    """The candidates of top_x's columns of one row `probs` that holds the
    classes of `parts`, slot after slot."""
    slots = range(len(parts)) if slots is None else slots
    columns = [(slot, cid, Viewpoint(*pose)) for slot, part in zip(slots, parts)
               for cid, pose in enumerate(part.representatives.tolist())]
    return [GlobalCandidate(columns[j][0], columns[j][1], probs[j], columns[j][2])
            for j in top_x(np.array([probs]), x)[0].tolist()]


def test_top_x_sorts_by_probability():
    part = _partition(3)
    out = _ranked([0.1, 0.7, 0.2], [part], 2)
    assert [c.class_id for c in out] == [1, 2]
    assert [c.probability for c in out] == [0.7, 0.2]
    assert out[0].location == Viewpoint(*part.representatives[1])


def test_top_x_with_x_at_least_k_returns_all():
    assert top_x(np.array([[0.5, 0.2, 0.3]]), 10).tolist() == [[0, 2, 1]]


def test_top_x_tie_breaks_to_lower_class_id():
    assert top_x(np.array([[0.25, 0.25, 0.25, 0.25]]), 4).tolist() == [[0, 1, 2, 3]]


def test_top_x_tie_breaks_to_lower_slot_then_class():
    a, b = _partition(2), _partition(3)
    out = _ranked([0.1, 0.45, 0.45, 0.1, 0.45], [a, b], 5, slots=[1, 3])
    assert [(c.source_classifier, c.class_id) for c in out] == \
        [(1, 1), (3, 0), (3, 2), (1, 0), (3, 1)]
    assert out[1].location == Viewpoint(*b.representatives[0])


def test_top_x_validates_sizes():
    with pytest.raises(ValueError):
        top_x(np.array([[1 / 3] * 3]), 0)


def test_top_x_rejects_invalid_probabilities():
    for bad in (np.nan, np.inf, -0.1, 1.5):
        with pytest.raises(ValueError):
            top_x(np.array([[0.5, 0.5], [0.2, bad]]), 1)


# Values at and around the edges of [0, 1]: NaN, the infinities, -0.0, the
# smallest negatives, 1 + 2**-52 (the next float above 1).
_EDGES = [np.nan, np.inf, -np.inf, -0.0, 0.0, -5e-324, -1e-300, 5e-324, 1.0, 1 + 2**-52, 0.5]


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
                  elements=st.sampled_from(_EDGES) | st.floats(-0.5, 1.5)))
def test_top_x_range_check_refuses_what_the_elementwise_test_refuses(probs):
    """top_x's check by min and max accepts exactly the arrays that
    ((probs >= 0) & (probs <= 1)).all() accepts, empty ones included."""
    if ((probs >= 0.0) & (probs <= 1.0)).all():
        assert np.array_equal(top_x(probs, 2), np.argsort(-probs, axis=-1, kind="stable")[..., :2])
    else:
        with pytest.raises(ValueError, match="probabilities"):
            top_x(probs, 2)


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


@pytest.mark.parametrize("c", [9, 20, 59, 60, 61, 79, 80, 81, 400])
def test_top_x_equals_stable_argsort_on_ties(c):
    """Every index array top_x returns is also C-contiguous: a row as `fuse`
    passes it (1-D), a single row, and batches ranked by a full sort or by
    selection."""
    rng = np.random.default_rng(c)
    for x in sorted({1, 2, 3, 10, c // PARTIAL_WIDTH, c - 1, c, c + 3} - {0}):
        for n in (1, 2, 3, 40):
            p = _tie_heavy_rows(rng, n, c)
            r = rng.dirichlet(np.ones(c), size=n)
            for probs in (p, r):
                got = top_x(probs, x)
                assert np.array_equal(got, _stable_top(probs, x)), (n, x)
                assert got.flags.c_contiguous, (n, x)
            got = top_x(p[0], x)
            assert np.array_equal(got, np.argsort(-p[0], kind="stable")[:x]), x
            assert got.flags.c_contiguous, x


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


@pytest.mark.parametrize("p", [1.5, -0.1])
def test_global_candidate_refuses_a_probability_outside_0_1(p):
    with pytest.raises(ValueError, match=r"probability must be in \[0, 1\]"):
        GlobalCandidate(0, 0, p, Viewpoint(0.0, 0.0))


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


def _random_ranking(rng, n, x):
    """A Ranking of n rows of x candidates, probabilities non-increasing."""
    probs = -np.sort(-rng.random((n, x)), axis=1)
    poses = rng.normal(0.0, 20.0, size=(n, x, 3))
    poses[..., 2] = rng.uniform(-np.pi, np.pi, size=(n, x))
    poses[0, 0, 2] = np.pi
    return Ranking(slots=rng.integers(0, 4, size=(n, x)), classes=rng.integers(0, 50, size=(n, x)),
                   probabilities=probs, poses=poses)


def test_ranking_items_are_the_rows_as_fused_results():
    rng = np.random.default_rng(2)
    r = _random_ranking(rng, 5, 3)
    want = [FusedResult(tuple(
        GlobalCandidate(int(r.slots[i, j]), int(r.classes[i, j]), float(r.probabilities[i, j]),
                        Viewpoint(*r.poses[i, j].tolist()))
        for j in range(3))) for i in range(5)]
    assert len(r) == 5
    assert [r[i] for i in range(5)] == want
    assert list(r) == want
    assert r == want and r == tuple(want)
    assert r[-1] == want[4] and r[-5] == want[0]
    for bad in (5, -6):
        with pytest.raises(IndexError):
            r[bad]
    assert isinstance(r[1:4], Ranking)
    assert r[1:4] == want[1:4] and r[::-2] == want[::-2]
    assert r[3:3] == [] and len(r[3:3]) == 0
    assert r != want[:4] and r != want[::-1]
    assert r[0].ranked[0].location.theta == np.pi
    assert (r == "abc") is False


def test_empty_ranking_equals_empty_list():
    empty = Ranking.empty()
    assert len(empty) == 0 and list(empty) == []
    assert empty == [] and [] == empty
    with pytest.raises(IndexError):
        empty[0]
