"""Tests for labelings and configurations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labeling import Configuration, Labeling
from repro.errors import IdentityError, LabelingError
from repro.graphs.generators import path_graph
from repro.util.rng import make_rng


class TestLabelingBasics:
    def test_mapping_protocol(self):
        lab = Labeling({0: "a", 1: "b"})
        assert lab[0] == "a"
        assert len(lab) == 2
        assert set(lab) == {0, 1}

    def test_missing_node_raises(self):
        with pytest.raises(LabelingError):
            Labeling({0: 1})[5]

    def test_uniform(self):
        lab = Labeling.uniform(range(3), 7)
        assert all(lab[v] == 7 for v in range(3))

    def test_with_state_is_persistent(self):
        lab = Labeling({0: 1, 1: 2})
        new = lab.with_state(0, 99)
        assert lab[0] == 1
        assert new[0] == 99

    def test_with_state_unknown_node(self):
        with pytest.raises(LabelingError):
            Labeling({0: 1}).with_state(7, 0)

    def test_with_states_bulk(self):
        lab = Labeling({0: 1, 1: 2, 2: 3}).with_states({0: 9, 2: 9})
        assert (lab[0], lab[1], lab[2]) == (9, 2, 9)

    def test_equality(self):
        assert Labeling({0: 1}) == Labeling({0: 1})
        assert Labeling({0: 1}) != Labeling({0: 2})


_states = st.dictionaries(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=5),
    min_size=1,
    max_size=10,
)


class TestHammingDistance:
    def test_identity(self):
        lab = Labeling({0: 1, 1: 2})
        assert lab.hamming_distance(lab) == 0

    @given(_states, st.integers(min_value=0, max_value=5))
    def test_symmetry(self, states, bump):
        a = Labeling(states)
        keys = sorted(states)
        b = a.with_state(keys[0], states[keys[0]] + bump)
        assert a.hamming_distance(b) == b.hamming_distance(a)

    @settings(max_examples=50)
    @given(_states, st.data())
    def test_triangle_inequality(self, states, data):
        keys = sorted(states)
        a = Labeling(states)
        b = Labeling({k: data.draw(st.integers(0, 5)) for k in keys})
        c = Labeling({k: data.draw(st.integers(0, 5)) for k in keys})
        assert a.hamming_distance(c) <= a.hamming_distance(b) + b.hamming_distance(c)

    def test_counts_differences(self):
        a = Labeling({0: 1, 1: 2, 2: 3})
        b = Labeling({0: 1, 1: 9, 2: 9})
        assert a.hamming_distance(b) == 2

    def test_mismatched_nodes(self):
        with pytest.raises(LabelingError):
            Labeling({0: 1}).hamming_distance(Labeling({1: 1}))

    def test_type_strict(self):
        # 1 == True == 1.0 in Python, but verifiers can tell them apart.
        a = Labeling({0: True, 1: (1, 2), 2: 0})
        b = Labeling({0: 1, 1: (1.0, 2), 2: False})
        assert a != b
        assert a.hamming_distance(b) == 3
        assert a == Labeling({0: True, 1: (1, 2), 2: 0})


class TestCorruption:
    def test_corrupts_exact_count(self):
        lab = Labeling({v: 0 for v in range(10)})
        corrupted = lab.corrupted(make_rng(1), 3, lambda v, s, r: s + 1)
        assert lab.hamming_distance(corrupted) == 3

    def test_too_many(self):
        with pytest.raises(LabelingError):
            Labeling({0: 1}).corrupted(make_rng(1), 2, lambda v, s, r: s)

    def test_max_state_bits(self):
        lab = Labeling({0: 0, 1: (1, 2, 3)})
        assert lab.max_state_bits() > 0


class TestConfiguration:
    def test_build_defaults(self):
        g = path_graph(3)
        config = Configuration.build(g)
        assert config.n == 3
        assert config.state(0) is None
        assert config.ids == {0: 1, 1: 2, 2: 3}

    def test_uid_lookup(self):
        config = Configuration.build(path_graph(2), ids={0: 10, 1: 20})
        assert config.uid(1) == 20
        assert config.node_of_uid(10) == 0
        with pytest.raises(LabelingError):
            config.node_of_uid(99)

    def test_labeling_must_cover_graph(self):
        with pytest.raises(LabelingError):
            Configuration.build(path_graph(3), {0: 1})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(IdentityError):
            Configuration.build(path_graph(2), ids={0: 1, 1: 1})

    def test_with_labeling(self):
        config = Configuration.build(path_graph(2), {0: "a", 1: "b"})
        new = config.with_labeling({0: "x", 1: "y"})
        assert new.state(0) == "x"
        assert config.state(0) == "a"
        assert new.ids == config.ids

    def test_with_ids(self):
        config = Configuration.build(path_graph(2))
        new = config.with_ids({0: 5, 1: 6})
        assert new.uid(0) == 5
