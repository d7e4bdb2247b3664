"""Bit-level tests of the Figure 9/11 entry encodings and the Section
III-D memory-housing layout, including hypothesis round-trips."""

import re

import pytest
from hypothesis import given, strategies as st

from repro.coherence.entry import DirectoryEntry, DirState
from repro.common.config import (DirectoryConfig, LLCReplacement, Protocol,
                                 SystemConfig)
from repro.common.errors import ConfigError
from repro.core import formats
from repro.core.formats import (HousedBlockImage, decode_fused_fpss,
                                decode_fused_fuseall, decode_spilled,
                                encode_fused_fpss, encode_fused_fuseall,
                                encode_spilled, fpss_corrupted_bits,
                                fuseall_corrupted_bits, max_sockets,
                                max_sockets_with_socket_entry, owner_bits,
                                reconstruct_fused_fpss)


class TestBitBudgets:
    def test_owner_bits(self):
        assert owner_bits(8) == 3
        assert owner_bits(128) == 7
        assert owner_bits(1) == 1

    def test_fpss_corruption_is_3_plus_log(self):
        assert fpss_corrupted_bits(8) == 6      # 3 + ceil(log2 8)

    def test_fuseall_corruption(self):
        assert fuseall_corrupted_bits(8, DirState.ME) == 7   # 4 + 3
        assert fuseall_corrupted_bits(8, DirState.S) == 12   # 4 + 8

    def test_max_sockets_paper_bound(self):
        # floor(512 / (N + 1)) for N = 8 gives 56 sockets.
        assert max_sockets(8) == 56
        assert max_sockets(128) == 3

    def test_solution2_bound(self):
        # M(N+1) + (M+2) <= 512 -> M <= 510/(N+2).
        assert max_sockets_with_socket_entry(8) == 51
        assert max_sockets_with_socket_entry(128) == 3
        # A ZeroDEV config is refused one socket over its solution's
        # housing bound, naming the bound; the bound itself is legal.
        zerodev = dict(protocol=Protocol.ZERODEV,
                       directory=DirectoryConfig(ratio=None),
                       llc_replacement=LLCReplacement.DATA_LRU)
        for n_cores, solution, bound, rule in (
                (8, 1, 56, "M(N+1) <= 512"),
                (8, 2, 51, "M(N+1) + (M+2) <= 512"),
                (128, 1, 3, "M(N+1) <= 512"),
                (128, 2, 3, "M(N+1) + (M+2) <= 512")):
            config = SystemConfig(n_cores=n_cores, n_sockets=bound,
                                  socket_dir_solution=solution, **zerodev)
            with pytest.raises(ConfigError, match=(
                    rf"bound of {bound} sockets per home block "
                    rf"\({re.escape(rule)}\)")):
                config.with_(n_sockets=bound + 1)


def entries(n_cores):
    owners = st.integers(min_value=0, max_value=n_cores - 1)
    vectors = st.integers(min_value=1, max_value=(1 << n_cores) - 1)

    def build(draw_owner, draw_vector, shared):
        if shared:
            return DirectoryEntry(0, DirState.S, sharers=draw_vector)
        return DirectoryEntry(0, DirState.ME, owner=draw_owner)

    return st.builds(build, owners, vectors, st.booleans())


class TestSpilledRoundTrip:
    @given(entries(8))
    def test_roundtrip_8_cores(self, entry):
        image = encode_spilled(entry, 8)
        assert image & 1 == 1                  # b0 marks spilled
        decoded = decode_spilled(image, 8)
        assert decoded.state is entry.state
        assert decoded.sharers == entry.sharers

    @given(entries(128))
    def test_roundtrip_128_cores(self, entry):
        decoded = decode_spilled(encode_spilled(entry, 128), 128)
        assert decoded.sharers == entry.sharers

    def test_decode_rejects_fused_image(self):
        with pytest.raises(ValueError):
            decode_spilled(0b10, 8)


class TestFpssFused:
    @given(st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=2**512 - 1),
           st.booleans(), st.booleans())
    def test_roundtrip(self, owner, block_data, dirty, busy):
        entry = DirectoryEntry(0, DirState.ME, owner=owner)
        image = encode_fused_fpss(entry, block_data, dirty, 8, busy)
        decoded, got_dirty, got_busy, high = decode_fused_fpss(image, 0, 8)
        assert decoded.owner == owner
        assert got_dirty is dirty and got_busy is busy
        assert high == block_data >> fpss_corrupted_bits(8)

    def test_only_low_bits_corrupted(self):
        entry = DirectoryEntry(0, DirState.ME, owner=5)
        data = (1 << 500) | 0b111111
        image = encode_fused_fpss(entry, data, dirty=False, n_cores=8)
        assert image >> 6 == data >> 6

    def test_reconstruction_from_eviction_bits(self):
        entry = DirectoryEntry(0, DirState.ME, owner=5)
        data = 0xDEADBEEFCAFE
        image = encode_fused_fpss(entry, data, dirty=True, n_cores=8)
        rebuilt = reconstruct_fused_fpss(image, data & 0b111111, 8)
        assert rebuilt == data

    def test_rejects_shared_entry(self):
        with pytest.raises(ValueError):
            encode_fused_fpss(DirectoryEntry(0, DirState.S, sharers=3),
                              0, False, 8)


class TestFuseAllFused:
    @given(entries(8), st.integers(min_value=0, max_value=2**512 - 1),
           st.booleans())
    def test_roundtrip(self, entry, block_data, dirty):
        image = encode_fused_fuseall(entry, block_data, dirty, 8)
        decoded, got_dirty, _ = decode_fused_fuseall(image, 0, 8)
        assert got_dirty is dirty
        assert decoded.state is entry.state
        if entry.state is DirState.S:
            assert decoded.sharers == entry.sharers
        else:
            assert decoded.owner == entry.owner

    def test_s_state_corrupts_more_bits(self):
        shared = DirectoryEntry(0, DirState.S, sharers=0xFF)
        owned = DirectoryEntry(0, DirState.ME, owner=0)
        data = (1 << 200) - 1
        image_s = encode_fused_fuseall(shared, data, False, 8)
        image_m = encode_fused_fuseall(owned, data, False, 8)
        assert image_s >> 12 == data >> 12
        assert image_m >> 7 == data >> 7


class TestHousedBlockImage:
    def test_segments_round_trip(self):
        housing = HousedBlockImage(n_cores=8, n_sockets=4)
        shared = DirectoryEntry(7, DirState.S, sharers=0b1010)
        owned = DirectoryEntry(7, DirState.ME, owner=3)
        housing.store(0, shared)
        housing.store(2, owned)
        got_shared = housing.load(0, block=7)
        got_owned = housing.load(2, block=7)
        assert got_shared.sharers == 0b1010
        assert got_shared.state is DirState.S
        assert got_owned.owner == 3
        assert housing.load(1, block=7) is None

    def test_clear_segment(self):
        housing = HousedBlockImage(n_cores=8, n_sockets=2)
        housing.store(1, DirectoryEntry(0, DirState.ME, owner=0))
        housing.clear(1)
        assert housing.load(1, 0) is None

    def test_pack_places_segments(self):
        housing = HousedBlockImage(n_cores=4, n_sockets=2)
        housing.store(1, DirectoryEntry(0, DirState.S, sharers=0b0011))
        image = housing.pack()
        width = 5
        assert image >> width == (1 << 4) | 0b0011
        assert image & (1 << width) - 1 == 0

    def test_rejects_too_many_sockets(self):
        with pytest.raises(ConfigError):
            HousedBlockImage(n_cores=128, n_sockets=8)

    def test_oversized_sharer_vector_rejected(self):
        with pytest.raises(ValueError):
            formats._entry_payload(
                DirectoryEntry(0, DirState.S, sharers=1 << 9), 8)
