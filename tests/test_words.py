"""Unit tests for machine-word helpers."""

import pytest

from repro.logic.words import (
    DEFAULT_WORD_LENGTH,
    broadcast,
    get_lane,
    iter_set_lanes,
    lane_bit,
    lowest_set_lane,
    mask_for,
    max_split_decisions,
    popcount,
    split_masks,
)


class TestBasics:
    def test_default_is_paper_word_length(self):
        assert DEFAULT_WORD_LENGTH == 64

    def test_mask(self):
        assert mask_for(1) == 1
        assert mask_for(4) == 0b1111
        assert mask_for(64) == (1 << 64) - 1

    def test_mask_rejects_zero(self):
        with pytest.raises(ValueError):
            mask_for(0)

    def test_lane_bit_and_get(self):
        word = lane_bit(3) | lane_bit(7)
        assert get_lane(word, 3) == 1
        assert get_lane(word, 7) == 1
        assert get_lane(word, 5) == 0

    def test_broadcast(self):
        assert broadcast(0, 8) == 0
        assert broadcast(1, 8) == 0xFF

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert popcount(mask_for(64)) == 64

    def test_popcount_beyond_one_machine_word(self):
        assert popcount(mask_for(200)) == 200
        assert popcount(1 << 130) == 1

    def test_popcount_rejects_negative_words(self):
        # regression: the seed computed bin(word & ~0), a no-op that
        # returned the set-bit count of the *negative* literal ("-0b101"
        # has two '1' characters) instead of a lane count
        with pytest.raises(ValueError):
            popcount(-1)
        with pytest.raises(ValueError):
            popcount(-0b101)

    def test_iter_set_lanes(self):
        assert list(iter_set_lanes(0b10110)) == [1, 2, 4]
        assert list(iter_set_lanes(0)) == []

    def test_lowest_set_lane(self):
        assert lowest_set_lane(0b1000) == 3
        assert lowest_set_lane(1) == 0
        with pytest.raises(ValueError):
            lowest_set_lane(0)


class TestSplitMasks:
    @pytest.mark.parametrize("width", [1, 2, 4, 8, 64])
    def test_partitions(self, width):
        mask = mask_for(width)
        for zeros, ones in split_masks(width):
            assert zeros | ones == mask
            assert zeros & ones == 0

    def test_enumerates_all_combinations(self):
        width = 8
        splits = split_masks(width)
        assert len(splits) == 3
        # lane k must receive the bit pattern of k across the splits
        for lane in range(width):
            pattern = 0
            for position, (_zeros, ones) in enumerate(splits):
                if (ones >> lane) & 1:
                    pattern |= 1 << position
            assert pattern == lane

    def test_width_one_has_no_splits(self):
        assert split_masks(1) == []
        assert max_split_decisions(1) == 0

    def test_each_call_returns_a_fresh_list(self):
        splits = split_masks(8)
        splits.pop()
        splits.append((0, 0))
        edited = split_masks(1)
        edited.append((0, 1))
        assert split_masks(8) == [(0x55, 0xAA), (0x33, 0xCC), (0x0F, 0xF0)]
        assert split_masks(1) == []

    def test_max_split_decisions(self):
        assert max_split_decisions(2) == 1
        assert max_split_decisions(4) == 2
        assert max_split_decisions(64) == 6
        assert max_split_decisions(6) == 2  # non-power-of-two floors
