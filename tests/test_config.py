"""Tests for SystemConfig (Table II) and its scaling helpers."""

import pytest

from repro.sim.config import DEFAULT_CONFIG, SystemConfig


class TestDefaults:
    def test_table2_values(self):
        cfg = DEFAULT_CONFIG
        assert cfg.commit_width == 6
        assert cfg.rob_size == 352
        assert cfg.l1d_size == 48 * 1024 and cfg.l1d_ways == 12
        assert cfg.l2_size == 512 * 1024 and cfg.l2_ways == 8
        assert cfg.llc_size_per_core == 2 * 1024 * 1024
        assert cfg.llc_ways == 16
        assert cfg.dram_mt_per_sec == 3200.0

    def test_llc_scales_with_cores(self):
        assert SystemConfig(num_cores=4).llc_size == 8 * 1024 * 1024

    def test_channel_table(self):
        for cores, channels in ((1, 1), (2, 2), (4, 2), (8, 4)):
            assert SystemConfig(num_cores=cores).channels == channels

    def test_table_renders(self):
        text = DEFAULT_CONFIG.table()
        assert "ROB" in text and "LLC" in text and "DRAM" in text

    def test_table_prints_sub_megabyte_llc_in_kb(self):
        # The experiments' 1/4-scale LLC is 512KB, not "0MB".
        llc = SystemConfig().scaled_down(4).table().splitlines()[3]
        assert "LLC" in llc and "512KB (512KB/core)" in llc
        four = SystemConfig(num_cores=4).scaled_down(4).table()
        assert "2MB (512KB/core)" in four
        assert "2MB (2MB/core)" in DEFAULT_CONFIG.table()


class TestScaling:
    def test_scaled_down_divides_caches_only(self):
        cfg = SystemConfig().scaled_down(4)
        assert cfg.l1d_size == 12 * 1024
        assert cfg.l2_size == 128 * 1024
        assert cfg.llc_size_per_core == 512 * 1024
        assert cfg.llc_ways == 16           # geometry shape kept
        assert cfg.commit_width == 6        # core untouched

    def test_scaled_down_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            SystemConfig().scaled_down(3)

    def test_scaled_overrides(self):
        cfg = SystemConfig().scaled(mlp=4, dram_bandwidth_scale=0.5)
        assert cfg.mlp == 4
        assert cfg.dram_bandwidth_scale == 0.5

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.mlp = 3  # frozen dataclass

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(num_cores=0)
        with pytest.raises(ValueError):
            SystemConfig(warmup_fraction=1.5)
