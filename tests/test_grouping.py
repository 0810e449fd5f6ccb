"""Binary group construction, detection patterns, and decoding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bestarm import IndexOutOfRange, InvalidK, construct_groups
from bestarm.core import MAX_K
from bestarm.grouping import decode_best_arm, detection_pattern


def members(code):
    return [g.tolist() for g in code.groups]


def test_groups_k4():
    code = construct_groups(4)
    assert code.K_orig == 4
    assert code.K_padded == 4
    assert code.m == 2
    assert members(code) == [[2, 4], [3, 4]]
    assert not code.dummy_arms


def test_groups_k8():
    code = construct_groups(8)
    assert members(code) == [[2, 4, 6, 8], [3, 4, 7, 8], [5, 6, 7, 8]]


def test_groups_k6_padded():
    # the groups of K = 8 without arms 7 and 8, which no instance has
    code = construct_groups(6)
    assert code.K_padded == 8
    assert code.m == 3
    assert list(code.dummy_arms) == [7, 8]
    assert members(code) == [[2, 4, 6], [3, 4], [5, 6]]


def test_groups_follow_the_bit_rule():
    for K in range(2, 301):
        code = construct_groups(K)
        for k, group in enumerate(code.groups):
            assert group.dtype == np.int64 and not group.flags.writeable
            assert group.tolist() == [a for a in range(1, K + 1) if (a - 1) >> k & 1]


def test_groups_invalid_k():
    for k in (1, 0, -4, MAX_K + 1, 10**8):
        with pytest.raises(InvalidK):
            construct_groups(k)


def test_group_sizes_are_half_of_padded():
    # with the padding indices whose bit is set, each group is half of K_padded
    for K in range(2, 130):
        code = construct_groups(K)
        for k, group in enumerate(code.groups):
            padding = sum(1 for a in code.dummy_arms if (a - 1) >> k & 1)
            assert len(group) + padding == code.K_padded // 2


def test_minimality_of_group_count():
    # m tests are just enough: one fewer cannot distinguish K_padded arms
    for k in (2, 3, 5, 8, 17, 64, 100):
        code = construct_groups(k)
        assert 2 ** (code.m - 1) < code.K_padded <= 2**code.m


def test_detection_pattern_arm_one_is_all_zero():
    code = construct_groups(8)
    assert detection_pattern(code, 1) == (0, 0, 0)


def test_detection_pattern_arm6_k8():
    code = construct_groups(8)
    assert detection_pattern(code, 6) == (1, 0, 1)


def test_detection_pattern_last_arm_all_ones():
    for k in (2, 4, 16):
        code = construct_groups(k)
        assert detection_pattern(code, code.K_padded) == (1,) * code.m


def test_detection_pattern_matches_membership():
    code = construct_groups(16)
    for arm in range(1, 17):
        bits = detection_pattern(code, arm)
        assert bits == tuple(int(arm in g) for g in code.groups)


def test_detection_pattern_range_checked():
    code = construct_groups(8)
    with pytest.raises(IndexOutOfRange):
        detection_pattern(code, 0)
    with pytest.raises(IndexOutOfRange):
        detection_pattern(code, 9)
    for arm in (2.0, 2.5, True):
        with pytest.raises(IndexOutOfRange):
            detection_pattern(code, arm)
    assert detection_pattern(code, np.int64(6)) == (1, 0, 1)


def test_decode_all_zero_is_arm_one():
    assert decode_best_arm(construct_groups(8), (0, 0, 0)) == 1


def test_decode_inverts_pattern():
    assert decode_best_arm(construct_groups(8), (1, 0, 1)) == 6


def test_decode_past_k_returns_the_padding_index():
    code = construct_groups(6)
    arm = decode_best_arm(code, (0, 1, 1))
    assert arm == 7 and arm > code.K_orig


def test_decode_validates_input():
    code = construct_groups(8)
    for bits in [
        (0, 1),  # wrong length
        (0, 2, 0),  # not a bit
        (0.5, 0, 0),  # fractional bits are not truncated
        (1.5, 0, 0),
        np.zeros((4, 2), dtype=np.int64),  # wrong last axis on a block
    ]:
        with pytest.raises(IndexOutOfRange):
            decode_best_arm(code, bits)


@pytest.mark.parametrize("k", [5, 12])
@pytest.mark.parametrize("dtype", [np.int64, bool])
def test_decode_block_spells_every_pattern(k, dtype):
    code = construct_groups(k)
    bits = np.array(
        [detection_pattern(code, arm) for arm in range(1, code.K_padded + 1)],
        dtype=dtype,
    )
    arms = decode_best_arm(code, bits)
    assert arms.tolist() == list(range(1, code.K_padded + 1))


@given(st.integers(min_value=2, max_value=1024), st.data())
def test_round_trip_random(k, data):
    code = construct_groups(k)
    arm = data.draw(st.integers(min_value=1, max_value=code.K_padded))
    assert decode_best_arm(code, detection_pattern(code, arm)) == arm
