"""Edit-distance metric: certified bounds, exactness, invariances."""

from __future__ import annotations

import pytest

from repro.core import catalog
from repro.core.labeling import Configuration
from repro.errors import LanguageError
from repro.errorsensitive import DistanceResult, distance_to_language
from repro.graphs.generators import connected_gnp, path_graph
from repro.util.rng import make_rng, spawn

LEADER = catalog.build("leader").language
STP = catalog.build("spanning-tree-ptr").language
INDEP = catalog.build("independent-set").language


class TestDistanceZero:
    @pytest.mark.parametrize("name", ["leader", "spanning-tree-ptr",
                                      "independent-set", "es-spanning-tree"])
    def test_members_are_at_distance_zero(self, name):
        spec = catalog.get(name)
        graph = spec.sample_graph(10, make_rng(1))
        scheme = spec.build(graph=graph, rng=make_rng(2))
        config = scheme.language.member_configuration(graph, rng=make_rng(3))
        result = distance_to_language(config, scheme.language)
        assert result == DistanceResult(0, 0, True, config.labeling, 1)


class TestExactSearch:
    def test_int_standing_in_for_a_bool_is_one_edit_out(self):
        # 1 == True, but the leader language reads isinstance(state, bool):
        # rewriting the leader's True to 1 leaves a non-member at distance 1.
        graph = path_graph(4)
        member = LEADER.member_configuration(graph, rng=make_rng(0))
        [leader] = [v for v in graph.nodes if member.state(v) is True]
        bad = member.with_labeling(member.labeling.with_state(leader, 1))
        assert not LEADER.is_member(bad)
        assert bad.labeling != member.labeling
        result = distance_to_language(bad, LEADER)
        assert result.exact and result.lower == result.upper == 1

    def test_extra_leaders_count_exactly(self):
        graph = path_graph(6)
        member = LEADER.member_configuration(graph, rng=make_rng(1))
        everyone = member.with_labeling({v: True for v in graph.nodes})
        result = distance_to_language(everyone, LEADER)
        assert result.exact
        assert result.lower == result.upper == 5

    def test_no_leader_is_one_edit_out(self):
        graph = path_graph(5)
        nobody = Configuration.build(
            graph, {v: False for v in graph.nodes}
        )
        result = distance_to_language(nobody, LEADER)
        assert result.exact
        assert result.upper == 1

    def test_witness_is_member_at_upper(self):
        rng = make_rng(7)
        for seed in range(4):
            graph = connected_gnp(8, 0.4, spawn(rng, seed))
            bad = STP.corrupted_configuration(graph, 2, rng=spawn(rng, 10 + seed))
            result = distance_to_language(bad, STP)
            assert result.witness is not None
            assert STP.is_member(bad.with_labeling(result.witness))
            assert bad.labeling.hamming_distance(result.witness) == result.upper

    @pytest.mark.parametrize("language", [LEADER, STP, INDEP],
                             ids=["leader", "stp", "indep"])
    def test_exact_agrees_with_greedy_bracket_on_small_instances(self, language):
        """The satellite check: on n <= 8 the exhaustive search must land
        inside (and tighten) the certified greedy bracket."""
        rng = make_rng(99)
        for seed in range(5):
            graph = connected_gnp(7, 0.45, spawn(rng, seed))
            corruptions = 1 + seed % 3
            try:
                bad = language.corrupted_configuration(
                    graph, corruptions, rng=spawn(rng, 50 + seed)
                )
            except LanguageError:
                continue
            exact = distance_to_language(bad, language, mode="exact",
                                         rng=spawn(rng, 100 + seed))
            greedy = distance_to_language(bad, language, mode="greedy",
                                          rng=spawn(rng, 100 + seed))
            assert exact.exact
            assert greedy.lower <= exact.upper <= greedy.upper
            assert exact.upper <= corruptions  # reverting the edits suffices

    def test_auto_mode_is_exact_only_below_the_limit(self):
        """The n <= exact_limit cutoff must gate the exhaustive search,
        so the probe needs a configuration whose greedy bracket stays
        open — otherwise exact=True is reached without searching."""
        rng = make_rng(31)
        open_bracket = None
        for seed in range(40):
            graph = connected_gnp(7, 0.45, spawn(rng, seed))
            bad = STP.corrupted_configuration(graph, 2, rng=spawn(rng, 60 + seed))
            greedy = distance_to_language(bad, STP, mode="greedy",
                                          rng=spawn(rng, 90 + seed))
            if greedy.lower < greedy.upper:
                open_bracket = (bad, greedy)
                break
        assert open_bracket, "no open greedy bracket found in 40 draws"
        bad, greedy = open_bracket
        below = distance_to_language(bad, STP, exact_limit=7,
                                     rng=make_rng(1))
        above = distance_to_language(bad, STP, exact_limit=4,
                                     rng=make_rng(1))
        assert below.exact  # n <= limit: the exhaustive search closed it
        assert greedy.lower <= below.upper <= greedy.upper
        assert not above.exact  # n > limit: bounds only
        assert (above.lower, above.upper) == (greedy.lower, greedy.upper)


class TestInvariances:
    def test_distance_is_invariant_under_id_relabeling(self):
        graph = connected_gnp(8, 0.4, make_rng(3))
        bad = LEADER.corrupted_configuration(graph, 2, rng=make_rng(4))
        base = distance_to_language(bad, LEADER, mode="exact")
        permuted = bad.with_ids(
            {v: 1000 - bad.uid(v) for v in graph.nodes}
        )
        relabeled = distance_to_language(permuted, LEADER, mode="exact")
        assert relabeled.lower == base.lower
        assert relabeled.upper == base.upper

    def test_anchor_pins_the_upper_bound(self):
        graph = connected_gnp(20, 0.2, make_rng(5))
        member = STP.member_configuration(graph, rng=make_rng(6))
        bad = member.with_labeling(
            member.labeling.corrupted(make_rng(7), 3, STP.random_corruption)
        )
        if STP.is_member(bad):
            pytest.skip("corruption landed back in the language")
        anchored = distance_to_language(
            bad, STP, mode="greedy", anchors=(member.labeling,)
        )
        assert anchored.upper <= 3


class TestValidation:
    def test_invalid_states_raise_the_lower_bound(self):
        graph = path_graph(6)
        states = {v: "garbage" for v in graph.nodes}
        config = Configuration.build(graph, states)
        result = distance_to_language(config, LEADER, mode="greedy")
        assert result.lower == 6

    def test_unknown_mode_rejected(self):
        graph = path_graph(4)
        config = LEADER.member_configuration(graph, rng=make_rng(1))
        with pytest.raises(LanguageError):
            distance_to_language(config, LEADER, mode="bogus")
