"""Device-id bit vectors and logical square coordinates."""

import pytest

from repro.core.device import (
    DeviceId,
    all_devices,
    square_coordinates,
)


class TestDeviceId:
    def test_rank_round_trip(self):
        for rank in range(16):
            device = DeviceId.from_rank(rank, 4)
            assert device.rank == rank

    def test_leading_bit_is_most_significant(self):
        assert DeviceId.from_rank(8, 4).bits == (1, 0, 0, 0)
        assert DeviceId.from_rank(1, 4).bits == (0, 0, 0, 1)

    def test_n_bits(self):
        assert DeviceId.from_rank(3, 5).n_bits == 5

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            DeviceId((0, 2))

    def test_rank_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DeviceId.from_rank(8, 3)
        with pytest.raises(ValueError):
            DeviceId.from_rank(-1, 3)

    def test_bit_accessor(self):
        device = DeviceId((1, 0, 1))
        assert device.bit(0) == 1
        assert device.bit(1) == 0
        assert device.bit(2) == 1

    def test_sub_bits(self):
        device = DeviceId((1, 0, 1, 0))
        assert device.sub_bits([0, 2]) == (1, 1)
        assert device.sub_bits([3]) == (0,)
        assert device.sub_bits([]) == ()

    def test_str(self):
        assert str(DeviceId((1, 0, 1))) == "101"

    def test_ordering_follows_rank(self):
        devices = sorted(all_devices(3))
        assert [d.rank for d in devices] == list(range(8))


class TestDeviceEnumeration:
    def test_all_devices_count(self):
        assert len(all_devices(0)) == 1
        assert len(all_devices(3)) == 8

    def test_all_devices_distinct(self):
        devices = all_devices(4)
        assert len(set(devices)) == 16


class TestSquareCoordinates:
    def test_k1_interleaving(self):
        # bits (d1, d2) -> (r, c) for a 2x2 square.
        assert square_coordinates(DeviceId((0, 0)), 0, 1) == (0, 0)
        assert square_coordinates(DeviceId((0, 1)), 0, 1) == (0, 1)
        assert square_coordinates(DeviceId((1, 0)), 0, 1) == (1, 0)
        assert square_coordinates(DeviceId((1, 1)), 0, 1) == (1, 1)

    def test_k2_interleaving_matches_alg1(self):
        # r = 2 d_i + d_{i+2}, c = 2 d_{i+1} + d_{i+3}  (Alg. 1 lines 9-10)
        device = DeviceId((1, 0, 0, 1))
        assert square_coordinates(device, 0, 2) == (2, 1)

    def test_offset_start_bit(self):
        device = DeviceId((1, 0, 1))  # first bit consumed elsewhere
        assert square_coordinates(device, 1, 1) == (0, 1)

    def test_insufficient_bits_rejected(self):
        with pytest.raises(ValueError):
            square_coordinates(DeviceId((0, 1)), 1, 1)

    def test_round_trip_with_device_from_square(self):
        def device_from_square(row, col, k):
            """Alg. 1's interleave: row bit j at 2j, column bit j at 2j+1."""
            bits = []
            for j in reversed(range(k)):
                bits += [(row >> j) & 1, (col >> j) & 1]
            return DeviceId(tuple(bits))

        for k in (1, 2):
            side = 1 << k
            for row in range(side):
                for col in range(side):
                    device = device_from_square(row, col, k)
                    assert square_coordinates(device, 0, k) == (row, col)

    def test_coordinates_cover_square(self):
        seen = {
            square_coordinates(d, 0, 2): d for d in all_devices(4)
        }
        assert len(seen) == 16
