"""Tests for the reconfigurable-core configuration space."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.coreconfig import (
    CACHE_ALLOCS,
    CORE_CONFIGS,
    JOINT_CONFIGS,
    N_CACHE_ALLOCS,
    N_CORE_CONFIGS,
    N_JOINT_CONFIGS,
    SECTION_WIDTHS,
    CoreConfig,
    JointConfig,
    iter_core_configs,
    iter_joint_configs,
)

widths = st.sampled_from(SECTION_WIDTHS)


class TestCoreConfig:
    def test_space_size(self):
        assert N_CORE_CONFIGS == 27
        assert len(CORE_CONFIGS) == 27
        assert len(set(CORE_CONFIGS)) == 27

    def test_narrowest_is_index_zero(self):
        assert CoreConfig.narrowest().index == 0
        assert CoreConfig.narrowest() == CoreConfig(2, 2, 2)

    def test_widest_is_last_index(self):
        assert CoreConfig.widest().index == 26
        assert CoreConfig.widest() == CoreConfig(6, 6, 6)

    @given(widths, widths, widths)
    def test_index_round_trip(self, fe, be, ls):
        config = CoreConfig(fe, be, ls)
        assert CoreConfig.from_index(config.index) == config

    def test_indices_are_dense(self):
        assert sorted(c.index for c in CORE_CONFIGS) == list(range(27))

    def test_from_index_returns_the_shared_instance(self):
        for i, config in enumerate(CORE_CONFIGS):
            assert config.index == i
            assert CoreConfig.from_index(i) is config

    @pytest.mark.parametrize("bad", [0, 1, 3, 5, 7, 8, -2])
    def test_invalid_width_rejected(self, bad):
        with pytest.raises(ValueError):
            CoreConfig(bad, 2, 2)
        with pytest.raises(ValueError):
            CoreConfig(2, bad, 2)
        with pytest.raises(ValueError):
            CoreConfig(2, 2, bad)

    @pytest.mark.parametrize("index", [-1, 27, 100])
    def test_invalid_index_rejected(self, index):
        with pytest.raises(ValueError):
            CoreConfig.from_index(index)

    def test_label_format(self):
        assert CoreConfig(6, 2, 4).label == "{6,2,4}"
        assert str(CoreConfig(2, 2, 2)) == "{2,2,2}"

    def test_widths_tuple(self):
        assert CoreConfig(4, 6, 2).widths() == (4, 6, 2)

    def test_ordering_is_by_widths(self):
        assert CoreConfig(2, 2, 2) < CoreConfig(2, 2, 4)
        assert CoreConfig(4, 2, 2) > CoreConfig(2, 6, 6)

    def test_hashable_and_usable_as_key(self):
        mapping = {config: config.index for config in CORE_CONFIGS}
        assert len(mapping) == 27

    def test_iter_matches_constant(self):
        assert list(iter_core_configs()) == list(CORE_CONFIGS)


class TestJointConfig:
    def test_space_size(self):
        assert N_JOINT_CONFIGS == 108
        assert len(JOINT_CONFIGS) == 108
        assert N_CACHE_ALLOCS == 4

    @given(st.integers(0, N_JOINT_CONFIGS - 1))
    def test_index_round_trip(self, index):
        joint = JointConfig.from_index(index)
        assert joint.index == index

    def test_from_index_returns_the_shared_instance(self):
        for i, joint in enumerate(JOINT_CONFIGS):
            assert JointConfig.from_index(i) is joint
            assert JointConfig.from_index(np.int64(i)) is joint
            assert joint.core is CoreConfig.from_index(i // N_CACHE_ALLOCS)

    def test_cache_interleaving(self):
        # Cache allocations vary fastest within a core configuration.
        first_four = [JointConfig.from_index(i).cache_ways for i in range(4)]
        assert first_four == list(CACHE_ALLOCS)
        assert all(
            JointConfig.from_index(i).core == CoreConfig.narrowest()
            for i in range(4)
        )

    @pytest.mark.parametrize("bad_ways", [0.0, 0.25, 3.0, 8.0, -1.0])
    def test_invalid_ways_rejected(self, bad_ways):
        with pytest.raises(ValueError):
            JointConfig(CoreConfig.widest(), bad_ways)

    @pytest.mark.parametrize("index", [-1, 108, 500])
    def test_invalid_index_rejected(self, index):
        with pytest.raises(ValueError):
            JointConfig.from_index(index)

    def test_cache_index(self):
        for i, ways in enumerate(CACHE_ALLOCS):
            assert JointConfig(CoreConfig.widest(), ways).cache_index == i

    def test_label(self):
        joint = JointConfig(CoreConfig(6, 2, 4), 0.5)
        assert joint.label == "{6,2,4}/0.5w"
        assert str(JointConfig(CoreConfig(2, 2, 2), 2.0)) == "{2,2,2}/2w"

    def test_iter_matches_constant(self):
        assert list(iter_joint_configs()) == list(JOINT_CONFIGS)

    def test_all_unique(self):
        assert len(set(JOINT_CONFIGS)) == 108


class TestStoredIndex:
    """``index`` is computed once at construction; it must equal the
    dense-index formula and stay out of equality, hashing, ordering and
    the repr."""

    def test_every_core_index_equals_the_formula(self):
        position = {width: i for i, width in enumerate(SECTION_WIDTHS)}
        for i, core in enumerate(CORE_CONFIGS):
            want = (
                position[core.fe] * 3 + position[core.be]
            ) * 3 + position[core.ls]
            fresh = CoreConfig(core.fe, core.be, core.ls)
            assert core.index == fresh.index == want == i
            assert CoreConfig.from_index(core.index) is core

    def test_every_joint_index_equals_the_formula(self):
        for i, joint in enumerate(JOINT_CONFIGS):
            want = (
                joint.core.index * N_CACHE_ALLOCS
                + CACHE_ALLOCS.index(joint.cache_ways)
            )
            fresh = JointConfig(joint.core, joint.cache_ways)
            assert joint.index == fresh.index == want == i
            assert JointConfig.from_index(joint.index) is joint

    def test_index_is_not_part_of_the_value(self):
        core = CoreConfig(6, 2, 4)
        joint = JointConfig(core, 2.0)
        assert "index" not in repr(core) and "index" not in repr(joint)
        assert hash(core) == hash(CoreConfig(6, 2, 4))
        assert hash(joint) == hash(JointConfig(CoreConfig(6, 2, 4), 2.0))
        assert sorted(JOINT_CONFIGS[::-1]) == list(JOINT_CONFIGS)
        with pytest.raises(TypeError):
            CoreConfig(2, 2, 2, index=0)
