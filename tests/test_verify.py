"""The verification oracle, metrics, and the tiny brute-force baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctagsched.graphs import (
    Mapping,
    clique,
    grid,
    identity_mapping,
    linear,
    make_architecture,
    make_problem_graph,
)
from ctagsched.pattern import (
    CPHASE,
    SWAP,
    Gate,
    ScheduledCircuit,
    from_json_dict,
    generate_clique_pattern,
    prune_pattern,
    to_json_dict,
)
from ctagsched.scheduler import STRATEGIES, SchedulerConfig, schedule
from ctagsched.verify import QAIM_IC_REFERENCE, metrics, verify
from reference_models import brute_force_optimal


def circuit(cycles, init, arch):
    return ScheduledCircuit(tuple(tuple(c) for c in cycles), init, arch)


def cphase(a, b):
    return Gate(CPHASE, a, b, None)


def swap(a, b):
    return Gate(SWAP, a, b, None)


class TestVerify:
    def test_accepts_the_clique_pattern(self):
        for n in (2, 5, 8):
            r = verify(generate_clique_pattern(n), clique(n), linear(n))
            assert r.ok
            assert len(r.executed_pairs) == n * (n - 1) // 2

    def test_missing_edge(self):
        g = make_problem_graph(3, [(0, 1), (1, 2)])
        c = circuit([[cphase(0, 1)]], identity_mapping(3), linear(3))
        r = verify(c, g, linear(3))
        assert not r.ok
        assert r.missing == frozenset({(1, 2)})
        assert not r.duplicated and not r.illegal_gates

    def test_duplicated_edge(self):
        g = make_problem_graph(3, [(0, 1)])
        c = circuit([[cphase(0, 1)], [cphase(0, 1)]], identity_mapping(3), linear(3))
        r = verify(c, g, linear(3))
        assert not r.ok
        assert r.duplicated == frozenset({(0, 1)})

    def test_extra_pair_counts_as_duplicated(self):
        # an executed pair absent from g is flagged the same way
        g = make_problem_graph(3, [(0, 1)])
        c = circuit([[cphase(0, 1)], [cphase(1, 2)]], identity_mapping(3), linear(3))
        r = verify(c, g, linear(3))
        assert not r.ok
        assert r.duplicated == frozenset({(1, 2)})

    def test_non_coupled_gate_is_illegal(self):
        g = make_problem_graph(3, [(0, 2)])
        c = circuit([[cphase(0, 2)]], identity_mapping(3), linear(3))
        r = verify(c, g, linear(3))
        assert not r.ok
        assert r.illegal_gates[0][4] == "qubits not coupled"
        assert r.missing == frozenset({(0, 2)})  # the illegal gate did not run

    def test_qubit_conflict_within_cycle(self):
        g = make_problem_graph(3, [(0, 1), (1, 2)])
        c = circuit([[cphase(0, 1), cphase(1, 2)]], identity_mapping(3), linear(3))
        r = verify(c, g, linear(3))
        assert not r.ok
        assert any(reason == "qubit used twice in cycle" for *_, reason in r.illegal_gates)

    def test_gate_on_empty_site(self):
        # 2 logicals on a 3-qubit device; site 2 holds nothing
        g = make_problem_graph(2, [(0, 1)])
        c = circuit([[cphase(1, 2)]], identity_mapping(2), linear(3))
        r = verify(c, g, linear(3))
        assert not r.ok
        assert r.illegal_gates[0][4] == "no logical qubit on site"

    @pytest.mark.parametrize("a, b", [(1, 3), (-1, 0), (2, 2)])
    def test_gate_off_the_device_is_illegal(self, a, b):
        # a site the device lacks, or a gate on one site, is no qubit pair
        g = make_problem_graph(3, [(0, 1)])
        c = circuit([[cphase(a, b)], [cphase(0, 1)]], identity_mapping(3), linear(3))
        r = verify(c, g, linear(3))
        assert not r.ok and not r.missing
        assert r.illegal_gates == ((0, CPHASE, a, b, "invalid qubit pair"),)

    @pytest.mark.parametrize("b", [1.0, True, "1"])
    def test_gate_on_a_site_that_is_no_plain_int_is_illegal(self, b):
        # a site equal to 1 is no site: the library once passed CPHASE(0,
        # 1.0), while the CLI refused the same circuit's JSON; now both do
        g = make_problem_graph(3, [(0, 1)])
        c = circuit([[Gate(CPHASE, 0, b, (0, 1))], [cphase(0, 1)]], identity_mapping(3),
                    linear(3))
        r = verify(c, g, linear(3))
        assert not r.ok and not r.missing
        assert r.illegal_gates == ((0, CPHASE, 0, b, "invalid qubit pair"),)
        with pytest.raises(ValueError, match="^malformed schedule document: site must be an"):
            from_json_dict(to_json_dict(c), linear(3))

    def test_init_out_of_range(self):
        g = make_problem_graph(2, [(0, 1)])
        c = circuit([[cphase(0, 1)]], Mapping((0, 5)), linear(3))
        r = verify(c, g, linear(3))
        assert not r.ok
        assert r.illegal_gates[0][1] == "init"

    @pytest.mark.parametrize("init", [(0, 1, 2), (0, 1, 2, 3, 4, 5)])
    def test_init_length_mismatch_is_illegal(self, init):
        # with no illegal gate the replay used to rebuild the final mapping
        # for all g.n qubits and raised KeyError on a short init
        g = make_problem_graph(5, [])
        arch = linear(6)
        r = verify(circuit([], Mapping(init), arch), g, arch)
        assert not r.ok
        assert r.illegal_gates[0][:2] == (-1, "init")
        assert r.final_mapping is None

    def test_unknown_kind(self):
        g = make_problem_graph(2, [(0, 1)])
        c = circuit([[Gate("iswap", 0, 1, None)]], identity_mapping(2), linear(2))
        r = verify(c, g, linear(2))
        assert not r.ok

    def test_logical_annotations_are_ignored(self):
        # a lying annotation must not fool the replay
        g = make_problem_graph(3, [(0, 1)])
        c = circuit([[Gate(CPHASE, 0, 1, (1, 2))]], identity_mapping(3), linear(3))
        assert verify(c, g, linear(3)).ok

    def test_swap_tracking_and_final_mapping(self):
        g = make_problem_graph(3, [(0, 2)])
        c = circuit(
            [[swap(1, 2)], [cphase(1, 2)]],
            identity_mapping(3),
            linear(3),
        )
        # swap brings logical 2 to site 1; cphase(1,2)... site 2 now holds
        # logical 1, so this executes (1, 2), not (0, 2)
        r = verify(c, g, linear(3))
        assert not r.ok and r.missing == frozenset({(0, 2)})
        c2 = circuit([[swap(0, 1)], [cphase(1, 2)]], identity_mapping(3), linear(3))
        r2 = verify(c2, g, linear(3))
        assert r2.ok
        assert r2.final_mapping.pi == (1, 0, 2)

    def test_swap_with_empty_site_moves_the_occupant(self):
        g = make_problem_graph(2, [(0, 1)])
        c = circuit(
            [[swap(1, 2)], [swap(0, 1)], [cphase(1, 2)]],
            Mapping((0, 1)),
            linear(3),
        )
        # logical 1 rides to site 2, logical 0 to site 1
        assert verify(c, g, linear(3)).ok

    def test_report_json_shape(self):
        g = make_problem_graph(3, [(0, 1)])
        c = circuit([[cphase(0, 1)]], identity_mapping(3), linear(3))
        doc = verify(c, g, linear(3)).to_json_dict()
        assert doc["ok"] is True
        assert doc["executed_pairs"] == [[0, 1]]
        assert doc["final_mapping"] == [0, 1, 2]


@st.composite
def verified_schedules(draw):
    # a schedule() output that verifies, for a graph with at least one edge
    # on a device that leaves some pair of sites uncoupled
    arch = make_architecture(draw(st.sampled_from(["linear:8", "grid:2x4", "grid:3x3", "ibm20"])))
    n = draw(st.integers(2, min(arch.q, 10)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = make_problem_graph(n, draw(st.sets(st.sampled_from(pairs), min_size=1)))
    cfg = SchedulerConfig(strategy=draw(st.sampled_from(STRATEGIES)), seed=draw(st.integers(0, 3)))
    c = schedule(g, arch, cfg)
    assert verify(c, g, arch).ok
    return g, arch, c


def _with_cycles(c, cycles):
    return ScheduledCircuit(tuple(tuple(cyc) for cyc in cycles), c.init, c.arch)


class TestVerifyRejectsOneMutation:
    # each property breaks a verified circuit in one place; the oracle must
    # say no, and say why

    @settings(max_examples=60, deadline=None)
    @given(verified_schedules(), st.data())
    def test_dropped_cphase(self, drawn, data):
        g, arch, c = drawn
        slots = [(t, i) for t, cyc in enumerate(c.cycles) for i, x in enumerate(cyc)
                 if x.kind == CPHASE]
        t, i = data.draw(st.sampled_from(slots))
        cycles = list(c.cycles)
        cycles[t] = cycles[t][:i] + cycles[t][i + 1:]
        r = verify(_with_cycles(c, cycles), g, arch)
        assert not r.ok
        assert len(r.missing) == 1 and not r.duplicated and not r.illegal_gates

    @settings(max_examples=60, deadline=None)
    @given(verified_schedules(), st.data())
    def test_duplicated_cphase(self, drawn, data):
        # the copy runs in a cycle of its own right after the original; no
        # SWAP of the original cycle touches its sites, so it meets the same pair
        g, arch, c = drawn
        slots = [(t, x) for t, cyc in enumerate(c.cycles) for x in cyc if x.kind == CPHASE]
        t, gate = data.draw(st.sampled_from(slots))
        cycles = list(c.cycles)
        cycles.insert(t + 1, (gate,))
        r = verify(_with_cycles(c, cycles), g, arch)
        assert not r.ok
        assert len(r.duplicated) == 1 and not r.missing and not r.illegal_gates

    @settings(max_examples=60, deadline=None)
    @given(verified_schedules(), st.data())
    def test_gate_on_uncoupled_pair(self, drawn, data):
        g, arch, c = drawn
        slots = [(t, i) for t, cyc in enumerate(c.cycles) for i in range(len(cyc))]
        t, i = data.draw(st.sampled_from(slots))
        a, b = data.draw(st.sampled_from([
            (a, b) for a in range(arch.q) for b in range(a + 1, arch.q) if not arch.coupled(a, b)
        ]))
        gate = c.cycles[t][i]
        cycles = list(c.cycles)
        cycles[t] = cycles[t][:i] + (gate._replace(a=a, b=b),) + cycles[t][i + 1:]
        r = verify(_with_cycles(c, cycles), g, arch)
        assert not r.ok
        assert (t, gate.kind, a, b, "qubits not coupled") in r.illegal_gates


class TestMetrics:
    def test_decomposition_identities(self):
        c = generate_clique_pattern(6)
        m = metrics(c, 6)
        assert m.abstract_depth == 10
        assert m.decomposed_depth == 3 * 10 + 2
        assert m.cphase_count == 15
        assert m.decomposed_gate_count == 3 * 15 + 3 * m.swap_count + 12

    def test_qubit_count_must_be_the_circuit_s(self):
        # the gate count adds 2n, so a wrong n would read a wrong count
        c = generate_clique_pattern(6)
        for n in (1, 7):
            with pytest.raises(ValueError, match=f"qubit count 6, got {n}"):
                metrics(c, n)
        assert metrics(c, 6).decomposed_gate_count == 87

    def test_independent_recount(self):
        g = make_problem_graph(7, [(0, 4), (2, 6), (1, 3)])
        c = prune_pattern(g, identity_mapping(7), linear(7), range(7))
        m = metrics(c, 7)
        cp = sum(1 for cyc in c.cycles for x in cyc if x.kind == CPHASE)
        sw = sum(1 for cyc in c.cycles for x in cyc if x.kind == SWAP)
        assert (m.cphase_count, m.swap_count) == (cp, sw)
        assert m.abstract_depth == len(c.cycles)

    def test_reference_table_keys(self):
        assert sorted(QAIM_IC_REFERENCE) == [10, 30, 50, 100, 200]
        t, d = QAIM_IC_REFERENCE[50]
        assert t == 27.3 and d == 1408

    def test_clique_pattern_against_the_qaim_ic_depths(self):
        # the paper reports up to 90% less decomposed depth than QAIM_IC on
        # cliques of up to 120 vertices; the gap widens with n
        cuts = {n: 1 - metrics(generate_clique_pattern(n), n).decomposed_depth / depth
                for n, (_, depth) in QAIM_IC_REFERENCE.items()}
        assert {n: round(100 * c, 1) for n, c in cuts.items()} == {
            10: 29.1, 30: 66.8, 50: 79.0, 100: 88.2, 200: 94.4,
        }
        ordered = [cuts[n] for n in sorted(cuts)]
        assert all(a < b for a, b in zip(ordered, ordered[1:]))
        assert cuts[100] >= 0.88


class TestBruteForce:
    def test_goldens(self):
        path3 = make_problem_graph(3, [(0, 1), (1, 2)])
        assert brute_force_optimal(clique(3), linear(3)) == 4
        assert brute_force_optimal(path3, linear(3)) == 2
        assert brute_force_optimal(clique(4), linear(4)) == 6
        assert brute_force_optimal(clique(5), linear(5)) == 8
        assert brute_force_optimal(make_problem_graph(2, [(0, 1)]), linear(2)) == 1

    def test_empty_graph(self):
        assert brute_force_optimal(make_problem_graph(3, []), linear(3)) == 0

    def test_path4(self):
        path4 = make_problem_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert brute_force_optimal(path4, linear(4)) == 2

    def test_depth_cap_returns_none(self):
        assert brute_force_optimal(clique(4), linear(4), depth_cap=3) is None

    def test_size_limits(self):
        with pytest.raises(ValueError):
            brute_force_optimal(clique(6), linear(6))
        with pytest.raises(ValueError):
            brute_force_optimal(clique(3), linear(3), depth_cap=13)
        with pytest.raises(ValueError):
            brute_force_optimal(clique(4), linear(3))

    def test_smaller_graph_on_larger_device(self):
        # an extra site gives the router room; optimum can only improve
        path3 = make_problem_graph(3, [(0, 1), (1, 2)])
        d3 = brute_force_optimal(path3, linear(3))
        d4 = brute_force_optimal(path3, linear(4))
        assert d4 <= d3

    @pytest.mark.parametrize("n", [3, 4])
    def test_pattern_within_twice_optimal(self, n):
        opt = brute_force_optimal(clique(n), linear(n))
        assert generate_clique_pattern(n).depth <= 2 * opt
