"""EngineConfig / DeviceConfig construction-time validation."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.core.config import EngineConfig
from repro.virtgpu.device import DeviceConfig


def test_defaults_are_the_papers_settings():
    cfg = EngineConfig()
    assert cfg.unroll == 8
    assert cfg.stop_level == 2
    assert cfg.detect_level == 2  # min(2, stop_level)
    assert cfg.max_degree == 4096
    assert cfg.local_steal and cfg.global_steal and cfg.code_motion
    assert not cfg.sanitize


def test_detect_level_resolves_against_stop_level():
    assert EngineConfig(stop_level=0).detect_level == 0
    assert EngineConfig(stop_level=1).detect_level == 1
    assert EngineConfig(stop_level=5).detect_level == 2
    assert EngineConfig(stop_level=3, detect_level=3).detect_level == 3


def test_detect_level_above_stop_level_rejected():
    with pytest.raises(ValueError, match="detect_level"):
        EngineConfig(stop_level=1, detect_level=2)


@pytest.mark.parametrize(
    "kw, match",
    [
        ({"unroll": 0}, "unroll"),
        ({"unroll": -3}, "unroll"),
        ({"stop_level": -1}, "stop_level"),
        ({"detect_level": -1}, "detect_level"),
        ({"chunk_size": 0}, "chunk_size"),
        ({"max_degree": 0}, "max_degree"),
        ({"max_results": 0}, "max_results"),
    ],
)
def test_invalid_engine_config_rejected(kw, match):
    with pytest.raises(ValueError, match=match):
        EngineConfig(**kw)


def test_knob_census():
    """Every engine knob by name, and no environment reads at all:
    ``EngineConfig`` is the package's only configuration, so a change
    that adds or drops a knob, or reads the environment, shows here."""
    assert [f.name for f in dataclasses.fields(EngineConfig)] == [
        "unroll", "stop_level", "detect_level", "max_degree", "chunk_size",
        "local_steal", "global_steal", "code_motion", "device", "max_results",
        "sanitize", "checkpoint_interval", "observe", "executor", "num_workers",
        "worker_timeout_s", "codegen", "partition_mode",
    ]
    env: set[str] = set()
    readers: list[str] = []
    for path in Path(repro.__file__).parent.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        env.update(re.findall(r"\bREPRO_[A-Z_]+\b", text))
        if re.search(r"\bos\.(environ|getenv)\b|\bgetenv\(", text):
            readers.append(path.name)
    assert env == set()
    assert readers == []


def test_with_revalidates():
    cfg = EngineConfig()
    with pytest.raises(ValueError, match="unroll"):
        cfg.with_(unroll=0)
    with pytest.raises(ValueError, match="detect_level"):
        cfg.with_(stop_level=1, detect_level=2)


def test_ablation_variants_validate():
    assert EngineConfig.naive().unroll == 1
    assert not EngineConfig.naive().local_steal
    assert EngineConfig.localsteal().local_steal
    assert not EngineConfig.localsteal().global_steal
    assert EngineConfig.local_global_steal().global_steal
    assert EngineConfig.full().unroll == 8


def test_sanitize_flag_round_trips():
    cfg = EngineConfig.full(sanitize=True)
    assert cfg.sanitize
    assert cfg.with_(unroll=2).sanitize


@pytest.mark.parametrize(
    "kw, match",
    [
        ({"num_blocks": 0}, "num_blocks"),
        ({"warps_per_block": 0}, "warps_per_block"),
        ({"shared_mem_per_block": 0}, "shared_mem"),
        ({"global_mem_bytes": 0}, "global_mem"),
    ],
)
def test_invalid_device_config_rejected(kw, match):
    with pytest.raises(ValueError, match=match):
        DeviceConfig(**kw)


def test_device_scaled_keeps_validating():
    dev = DeviceConfig()
    assert dev.scaled(2).num_blocks == 16
    assert dev.scaled(2).num_warps == dev.num_warps * 2
