"""Unit tests for configuration dataclasses and presets."""

import pytest

from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCDesign, LLCReplacement,
                                 Protocol, SystemConfig, KERNELS, KERNEL_ENV,
                                 resolve_kernel, scaled_socket,
                                 table1_socket)
from repro.common.errors import ConfigError


class TestCacheGeometry:
    def test_blocks_and_sets(self):
        geometry = CacheGeometry(32 * 1024, 8)
        assert geometry.blocks == 512
        assert geometry.sets == 64

    def test_rejects_non_divisible_size(self):
        with pytest.raises(ConfigError):
            CacheGeometry(1000, 8)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheGeometry(3 * 64 * 4, 4)   # 3 sets


class TestDirectoryConfig:
    def test_one_x_sizing_matches_aggregate_l2(self):
        config = table1_socket()
        # 8 cores x 4096 L2 blocks = 32768 entries at 1x.
        assert config.directory_entries == 32768

    def test_fractional_ratio(self):
        config = table1_socket(directory=DirectoryConfig(ratio=0.125))
        assert config.directory_entries == 4096

    def test_no_directory(self):
        dcfg = DirectoryConfig(ratio=None)
        assert not dcfg.present
        assert dcfg.entries_for(1000) == 0

    def test_unbounded(self):
        dcfg = DirectoryConfig(unbounded=True)
        assert dcfg.present
        assert dcfg.entries_for(1000) == 0

    def test_entries_rounded_to_pow2_sets(self):
        dcfg = DirectoryConfig(ratio=0.3, ways=8)
        entries = dcfg.entries_for(2048)
        assert entries % 8 == 0
        sets = entries // 8
        assert sets & (sets - 1) == 0


class TestSystemConfig:
    def test_table1_defaults(self):
        config = table1_socket()
        assert config.n_cores == 8
        assert config.llc.size_bytes == 8 * 1024 * 1024
        assert config.llc.ways == 16
        assert config.llc_banks == 8
        assert config.l2.size_bytes == 256 * 1024

    def test_llc_to_l2_capacity_ratio_is_4(self):
        for config in (table1_socket(), scaled_socket()):
            assert config.llc.blocks == 4 * config.aggregate_l2_blocks

    def test_scaled_preserves_associativity(self):
        config = scaled_socket(16)
        assert config.llc.ways == 16
        assert config.l2.ways == 8

    def test_scaled_rejects_non_pow2(self):
        with pytest.raises(ConfigError):
            scaled_socket(3)

    def test_no_directory_requires_zerodev(self):
        with pytest.raises(ConfigError):
            SystemConfig(directory=DirectoryConfig(ratio=None))

    def test_zerodev_rejects_plain_lru(self):
        with pytest.raises(ConfigError):
            SystemConfig(protocol=Protocol.ZERODEV,
                         llc_replacement=LLCReplacement.LRU)

    def test_zerodev_nodir_with_datalru_allowed(self):
        config = SystemConfig(protocol=Protocol.ZERODEV,
                              directory=DirectoryConfig(ratio=None),
                              llc_replacement=LLCReplacement.DATA_LRU)
        assert config.directory_entries == 0

    def test_with_returns_modified_copy(self):
        config = table1_socket()
        other = config.with_(llc_design=LLCDesign.EPD)
        assert other.llc_design is LLCDesign.EPD
        assert config.llc_design is LLCDesign.NON_INCLUSIVE

    def test_bank_sets(self):
        config = table1_socket()
        assert config.llc_bank_sets * config.llc_banks == config.llc.sets

    def test_enums_roundtrip(self):
        assert Protocol("zerodev") is Protocol.ZERODEV
        assert DirCachingPolicy("fuse-all") is DirCachingPolicy.FUSE_ALL
        assert LLCReplacement("dataLRU") is LLCReplacement.DATA_LRU
        assert LLCDesign("epd") is LLCDesign.EPD


class TestKernelSelection:
    def test_default_is_scalar(self):
        assert table1_socket().kernel == "scalar"
        assert SystemConfig().kernel == "scalar"
        assert "batched" in KERNELS and "scalar" in KERNELS

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(kernel="simd")

    def test_unknown_kernel_error_names_choices(self):
        # The message must enumerate the valid kernels so a typo in
        # REPRO_KERNEL or a config file is self-diagnosing; the deleted
        # columnar kernel is unknown like any other name.
        assert KERNELS == ("batched", "scalar")
        for name in ("simd", "vectorized"):
            with pytest.raises(ConfigError) as excinfo:
                SystemConfig(kernel=name)
            message = str(excinfo.value)
            for kernel in KERNELS:
                assert kernel in message
            assert name in message

    def test_resolve_prefers_env(self, monkeypatch):
        config = table1_socket()
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert resolve_kernel(config) == "scalar"
        assert resolve_kernel(config.with_(kernel="batched")) == "batched"
        monkeypatch.setenv(KERNEL_ENV, "batched")
        assert resolve_kernel(config) == "batched"
        monkeypatch.setenv(KERNEL_ENV, "scalar")
        assert resolve_kernel(config.with_(kernel="batched")) == "scalar"

    def test_resolve_rejects_unknown_env(self, monkeypatch):
        for name in ("turbo", "vectorized"):
            monkeypatch.setenv(KERNEL_ENV, name)
            with pytest.raises(ConfigError) as excinfo:
                resolve_kernel(table1_socket())
            message = str(excinfo.value)
            for kernel in KERNELS:
                assert kernel in message
