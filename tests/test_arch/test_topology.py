"""Tests for butterfly routing, collision marking and mode words."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Butterfly, NodeMode, RoutingConflict

WIDTHS = [2, 4, 8, 16, 32]


def lanes(c: int):
    return st.integers(0, c - 1)


class TestStructure:
    @pytest.mark.parametrize("c", WIDTHS)
    def test_node_count_matches_paper_formula(self, c):
        bf = Butterfly(c)
        stages = int(np.log2(c))
        assert bf.stages == stages
        assert bf.num_nodes == c * (stages + 1)

    def test_c32_has_192_nodes(self):
        """Fig. 8: 'all 192 nodes within the network, which has a width
        of C = 32'."""
        assert Butterfly(32).num_nodes == 192

    def test_control_bits(self):
        """Section III-C: 2C·log₂C control bits."""
        assert Butterfly(8).control_bits == 2 * 8 * 3

    @pytest.mark.parametrize("bad", [0, 1, 3, 6, 12])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ValueError):
            Butterfly(bad)

    def test_latency_grows_with_stages(self):
        assert Butterfly(4).latency < Butterfly(32).latency

    def test_lane_range_checks(self):
        bf = Butterfly(4)
        with pytest.raises(ValueError):
            bf.multiplier_bit(4)
        with pytest.raises(ValueError):
            bf.adder_bit(0, -1)
        with pytest.raises(ValueError):
            bf.adder_bit(2, 0)
        with pytest.raises(ValueError):
            bf.path_nodes(0, 7)


class TestRouting:
    def test_paper_example_xor_control(self):
        """Fig. 6c: input 0 -> output 3 in a C=8 network needs control
        011 (cross at stage 0, cross at stage 1, direct at stage 2)."""
        bf = Butterfly(8)
        assert bf.control_word(0, 3) == 0b011

    def test_path_ends_at_destination(self):
        bf = Butterfly(16)
        for src, dst in [(0, 15), (7, 7), (3, 12)]:
            nodes = bf.path_nodes(src, dst)
            assert nodes[-1] == (bf.stages - 1, dst)

    def test_path_starts_near_source(self):
        bf = Butterfly(16)
        src, dst = 5, 9
        stage0_lane = bf.path_nodes(src, dst)[0][1]
        # Only bit 0 may have changed after stage 0.
        assert stage0_lane & ~1 == src & ~1

    @given(st.sampled_from(WIDTHS), st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_destination_flows_merge_and_stay_merged(self, c, data):
        bf = Butterfly(c)
        a1 = data.draw(lanes(c))
        a2 = data.draw(lanes(c))
        d = data.draw(lanes(c))
        p1 = bf.path_nodes(a1, d)
        p2 = bf.path_nodes(a2, d)
        merged = False
        for n1, n2 in zip(p1, p2):
            if merged:
                assert n1 == n2  # once merged, identical forever
            if n1 == n2:
                merged = True
        assert merged  # all same-destination flows merge by the last stage


class TestOccupancy:
    def test_reduce_always_routable(self):
        bf = Butterfly(8)
        occ = bf.occupancy_reduce([0, 1, 5, 7], 2)
        assert occ != 0
        # Multiplier nodes of all sources marked.
        for lane in [0, 1, 5, 7]:
            assert occ & bf.multiplier_bit(lane)

    def test_reduce_rejects_duplicate_sources(self):
        bf = Butterfly(8)
        with pytest.raises(RoutingConflict):
            bf.occupancy_reduce([3, 3], 0)

    def test_broadcast_marks_dest_multipliers(self):
        bf = Butterfly(8)
        occ = bf.occupancy_broadcast(2, [0, 3, 6])
        for lane in [0, 3, 6]:
            assert occ & bf.multiplier_bit(lane)
        assert not occ & bf.multiplier_bit(2)

    def test_permute_identity_routable(self):
        bf = Butterfly(8)
        pairs = [(i, i) for i in range(8)]
        assert bf.permute_routable(pairs)

    def test_permute_reversal_routable(self):
        # Lane reversal i -> C-1-i is a classic butterfly-routable
        # permutation (pure cross at every stage).
        bf = Butterfly(8)
        pairs = [(i, 7 - i) for i in range(8)]
        assert bf.permute_routable(pairs)

    def test_some_permutation_blocks(self):
        # Butterflies are blocking networks: 0->0 and 1->2 collide
        # nowhere, but 0->1 and 2->1 share the destination.
        bf = Butterfly(4)
        with pytest.raises(RoutingConflict):
            bf.occupancy_permute([(0, 1), (2, 1)])

    def test_known_blocking_pair(self):
        # 0->2 and 1->3 both cross at stage 1 from adjacent lanes; in a
        # C=4 butterfly 0->2 occupies stage-1 node 2 and 1->3 node 3 —
        # fine.  But 0->2 and 2->0 swap halves and are routable, while
        # 0->2 and 2->3 collide at stage 1.  Verify the checker agrees
        # with a brute-force node-set intersection.
        bf = Butterfly(4)
        for pairs in [[(0, 2), (2, 0)], [(0, 2), (2, 3)], [(1, 0), (3, 2)]]:
            sets = [set(bf.path_nodes(a, d)) for a, d in pairs]
            expected = not (sets[0] & sets[1])
            assert bf.permute_routable(pairs) == expected

    def test_occupancy_subsets_full_mask(self):
        bf = Butterfly(16)
        occ = bf.occupancy_reduce(list(range(16)), 0)
        assert occ & ~bf.full_mask() == 0

    @given(st.sampled_from([4, 8, 16]), st.data())
    @settings(max_examples=50, deadline=None)
    def test_permute_occupancy_matches_paths(self, c, data):
        bf = Butterfly(c)
        perm = data.draw(st.permutations(list(range(c))))
        pairs = list(enumerate(perm))
        try:
            occ = bf.occupancy_permute(pairs)
        except RoutingConflict:
            return
        expected = 0
        for a, d in pairs:
            for s, lane in bf.path_nodes(a, d):
                expected |= bf.adder_bit(s, lane)
        assert occ == expected


class TestPathMaskMemo:
    """The memoised per-path masks against the node-by-node walk they
    replace, and the error paths the fast cases fall through to."""

    @staticmethod
    def walked(bf, src, dst):
        mask = 0
        for s, lane in bf.path_nodes(src, dst):
            mask |= bf.adder_bit(s, lane)
        return mask

    @pytest.mark.parametrize("c", [2, 8, 32])
    def test_every_path_mask_equals_the_walk(self, c):
        bf = Butterfly(c)
        for src in range(c):
            for dst in range(c):
                assert bf.path_mask(src, dst) == self.walked(bf, src, dst)

    @pytest.mark.parametrize("c", [2, 8, 32])
    def test_reduce_and_broadcast_equal_the_walk(self, c):
        bf = Butterfly(c)
        lanes = list(range(0, c, 3)) or [0]
        for end in range(c):
            for use_multipliers in (True, False):
                want_r = want_b = 0
                for lane in lanes:
                    if use_multipliers:
                        want_r |= bf.multiplier_bit(lane)
                        want_b |= bf.multiplier_bit(lane)
                    want_r |= self.walked(bf, lane, end)
                    want_b |= self.walked(bf, end, lane)
                assert want_r == bf.occupancy_reduce(
                    lanes, end, use_multipliers=use_multipliers
                )
                assert want_b == bf.occupancy_broadcast(
                    end, lanes, use_multipliers=use_multipliers
                )

    @pytest.mark.parametrize(
        "pairs, message",
        [
            (
                [(0, 0), (1, 2)],
                "flows (0, 0) and (1, 2) collide at stage 0, lane 0",
            ),
            (
                [(3, 3), (0, 0), (2, 4)],
                "flows (0, 0) and (2, 4) collide at stage 1, lane 0",
            ),
            ([(0, 1), (0, 2)], "source lane 0 used twice"),
            ([(0, 5), (1, 4), (2, 4)], "destination lane 4 used twice"),
        ],
    )
    def test_conflict_messages_unchanged(self, pairs, message):
        with pytest.raises(RoutingConflict) as err:
            Butterfly(8).occupancy_permute(pairs)
        assert str(err.value) == message

    def test_out_of_range_lane_still_rejected(self):
        bf = Butterfly(8)
        with pytest.raises(ValueError, match="lane 9 out of range for C=8"):
            bf.occupancy_permute([(0, 3), (1, 2), (9, 1)])
        with pytest.raises(ValueError, match="lane 8 out of range for C=8"):
            bf.path_mask(0, 8)
        with pytest.raises(ValueError, match="lane -1 out of range for C=8"):
            bf.occupancy_reduce([-1], 0)


class TestModeSimulation:
    """Gate-level checks: the computed mode words produce the intended
    arithmetic when values are pushed through the node array."""

    @given(st.sampled_from([4, 8, 16]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_reduction_sums_at_destination(self, c, data):
        bf = Butterfly(c)
        k = data.draw(st.integers(1, c))
        sources = data.draw(
            st.lists(lanes(c), min_size=k, max_size=k, unique=True)
        )
        dest = data.draw(lanes(c))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        values = rng.standard_normal(len(sources))
        inputs: list[float | None] = [None] * c
        for lane, v in zip(sources, values):
            inputs[lane] = float(v)
        modes = bf.modes_for_reduce(sources, dest)
        outputs = bf.simulate_modes(inputs, modes)
        assert outputs[dest] == pytest.approx(values.sum(), abs=1e-12)

    @given(st.sampled_from([4, 8, 16]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_broadcast_reaches_all_destinations(self, c, data):
        bf = Butterfly(c)
        source = data.draw(lanes(c))
        k = data.draw(st.integers(1, c))
        dests = data.draw(st.lists(lanes(c), min_size=k, max_size=k, unique=True))
        inputs: list[float | None] = [None] * c
        inputs[source] = 2.5
        modes = bf.modes_for_broadcast(source, dests)
        outputs = bf.simulate_modes(inputs, modes)
        for d in dests:
            assert outputs[d] == pytest.approx(2.5)

    def test_mac_example_from_figure_6a(self):
        """Fig. 6a: C=8 MAC of all inputs into one output."""
        bf = Butterfly(8)
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        modes = bf.modes_for_reduce(list(range(8)), 0)
        outputs = bf.simulate_modes(values, modes)
        assert outputs[0] == pytest.approx(36.0)

    def test_mode_word_count_covers_all_stages(self):
        bf = Butterfly(8)
        modes = bf.modes_for_reduce([0, 1], 0)
        assert len(modes) == bf.stages
        assert all(len(row) == 8 for row in modes)
