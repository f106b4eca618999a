"""The incremental verdict vector against a fresh full decide.

:class:`~repro.core.verifier.IncrementalVerifier` is the one engine
behind detection sessions and rejection counting, so its contract is
pinned here for every catalog scheme: after every step of a random
inject / repair / multi-node edit sequence — with the changed set
declared or left to the diff — the session verdict equals a fresh
``scheme.run`` and :meth:`RejectionCounter.count` equals
:func:`count_rejections`.  The cost side is pinned too: a single-edit
sweep verifies at most the edited node's ball, and an unchanged
re-sweep verifies nothing.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import catalog
from repro.core.verifier import IncrementalVerifier, affected_nodes, same_value
from repro.errorsensitive import RejectionCounter, count_rejections
from repro.local.network import Network
from repro.obs import metrics as obs
from repro.selfstab.campaign import FrozenCertifiedProtocol
from repro.selfstab.detector import PlsDetector
from repro.util.rng import make_rng, spawn

#: One edit step: kind, a node selector, and whether the changed set is
#: declared (``True``) or diffed by the session (``False``).
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["inject", "repair", "multi"]),
        st.integers(min_value=0, max_value=10**6),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


def _system(name, seed):
    spec = catalog.get(name)
    rng = make_rng(seed)
    n = 8 if spec.kind == "universal" else 12
    graph = spec.sample_graph(n, spawn(rng, 1))
    scheme = spec.build(graph=graph, rng=spawn(rng, 2))
    config = scheme.language.member_configuration(graph, rng=spawn(rng, 3))
    certificates = scheme.prove(config)
    protocol = FrozenCertifiedProtocol(scheme, config, certificates)
    network = Network(graph, ids=config.ids)
    return scheme, config, certificates, protocol, network


def _verify_nodes():
    return obs.counter_total("verify.nodes")


@pytest.mark.parametrize("name", catalog.names())
class TestIncrementalOracle:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10**6), steps=STEPS)
    def test_session_and_counter_track_fresh_decide(self, name, seed, steps):
        scheme, config, certificates, protocol, network = _system(name, seed)
        graph, nodes = network.graph, sorted(network.graph.nodes)
        contexts = network.contexts()
        detector = PlsDetector(scheme, protocol)
        clean = {v: protocol.initial_state(contexts[v]) for v in nodes}
        states = dict(clean)
        session = detector.session(network, states)
        counter = RejectionCounter(scheme, config, certificates)
        rng = make_rng(seed)
        edited: set[int] = set()
        for kind, selector, declared in steps:
            if kind == "repair" and edited:
                victims = [sorted(edited)[selector % len(edited)]]
                states[victims[0]] = clean[victims[0]]
            else:
                count = 1 if kind != "multi" else 2 + selector % 3
                victims = sorted(
                    {nodes[(selector + 5 * i) % len(nodes)] for i in range(count)}
                )
                for v in victims:
                    states[v] = protocol.random_state(contexts[v], rng)
            edited.update(victims)

            before = _verify_nodes()
            report = session.sweep(
                states, changed=victims if declared else None, check_membership=False
            )
            spent = _verify_nodes() - before
            fresh = scheme.run(
                detector.configuration(network, states),
                certificates=detector.certificates(network, states),
            )
            assert report.verdict == fresh
            if len(victims) == 1:
                assert spent <= len(affected_nodes(graph, victims, scheme.radius))

            # An unchanged re-sweep re-verifies and rebuilds nothing.
            before, views = _verify_nodes(), obs.view_build_total()
            again = session.sweep(states, check_membership=False)
            assert again.verdict == fresh
            assert _verify_nodes() == before and obs.view_build_total() == views

            # The counter pins the base certificates and relabels outputs.
            outputs = {v: protocol.output(contexts[v], states[v]) for v in nodes}
            expected = count_rejections(
                scheme, config.with_labeling(outputs), certificates=certificates
            )
            assert counter.count(outputs) == expected
            assert counter.count(outputs, changed=edited) == expected


class TestIncrementalVerifier:
    def _instance(self):
        scheme, config, certificates, _, _ = _system("spanning-tree-ptr", 7)
        return scheme, config, dict(certificates)

    def test_seed_equals_full_decide(self):
        scheme, config, certificates = self._instance()
        engine = IncrementalVerifier(scheme, config, certificates)
        assert engine.verdict() == scheme.run(config, certificates=certificates)

    def test_update_commits_and_probe_does_not(self):
        scheme, config, certificates = self._instance()
        states = {v: config.state(v) for v in config.graph.nodes}
        engine = IncrementalVerifier(scheme, config, certificates, states=states)
        certificates[3] = ("corrupt", 1)
        engine.update([3])
        broken = engine.verdict()
        assert broken == scheme.run(config, certificates=certificates)
        assert broken.rejects
        probed = dict(states)
        probed[5] = "junk"
        assert engine.probe([5], probed) == scheme.run(
            config.with_labeling(probed), certificates=certificates
        )
        assert engine.verdict() == broken  # probing committed nothing

    def test_per_node_decide_charges_n_verify_nodes(self):
        scheme, config, certificates = self._instance()
        views = scheme.build_views(config, certificates)
        before = _verify_nodes()
        scheme.run(config, certificates=certificates, views=views)
        assert _verify_nodes() - before == config.graph.n


class TestTypeStrictDiff:
    """``1 == True``, but the leader verifier insists on a bool: an edit
    from ``True`` to ``1`` must be re-verified, not skipped as a no-op."""

    def _leader(self):
        scheme, config, certificates, protocol, network = _system("leader", 3)
        contexts = network.contexts()
        states = {v: protocol.initial_state(contexts[v]) for v in network.graph.nodes}
        leader = next(v for v in states if states[v][0] is True)
        return scheme, config, certificates, protocol, network, states, leader

    @pytest.mark.parametrize("declared", [True, False])
    def test_session_sees_bool_to_int_edit(self, declared):
        scheme, _, _, protocol, network, states, leader = self._leader()
        detector = PlsDetector(scheme, protocol)
        session = detector.session(network, states)
        bad = dict(states)
        bad[leader] = (1, states[leader][1])
        report = session.sweep(
            bad, changed=[leader] if declared else None, check_membership=False
        )
        fresh = detector.sweep(network, bad).verdict
        assert report.verdict == fresh
        assert leader in fresh.rejects

    def test_counter_sees_bool_to_int_edit(self):
        scheme, config, certificates, _, _, _, leader = self._leader()
        counter = RejectionCounter(scheme, config, certificates)
        labeling = {v: config.state(v) for v in config.graph.nodes}
        labeling[leader] = 1
        expected = count_rejections(
            scheme, config.with_labeling(labeling), certificates=certificates
        )
        assert expected >= 1
        assert counter.count(labeling) == expected
        assert counter.count(labeling, changed=[leader]) == expected

    def test_same_value(self):
        assert same_value((1, frozenset({2})), (1, frozenset({2})))
        assert same_value({"a": [1, 2]}, {"a": [1, 2]})
        assert not same_value(True, 1)
        assert not same_value(1, 1.0)
        assert not same_value((0, True), (0, 1))
        assert not same_value(frozenset({True}), frozenset({1}))
        assert not same_value({"a": 1}, {"a": True})
        assert not same_value([0], (0,))
        assert not same_value(float("nan"), float("nan"))
