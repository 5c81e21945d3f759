"""Tests for the vNPU abstraction, mapper and manager."""

import pytest

from repro.config import GiB, MiB, NpuCoreConfig
from repro.core.mapper import MappingMode, VnpuMapper
from repro.core.manager import VnpuManager
from repro.core.vnpu import VnpuConfig, VnpuInstance, VnpuState
from repro.errors import AllocationError, ConfigError, LifecycleError, MappingError

CORE = NpuCoreConfig()


def _cfg(mes=2, ves=2, sram=32 * MiB, hbm=8 * GiB):
    return VnpuConfig(
        num_mes_per_core=mes,
        num_ves_per_core=ves,
        sram_bytes_per_core=sram,
        hbm_bytes_per_core=hbm,
    )


# ----------------------------------------------------------------------
# VnpuConfig / VnpuInstance
# ----------------------------------------------------------------------
def test_config_minimums():
    with pytest.raises(ConfigError):
        VnpuConfig(num_mes_per_core=0)
    with pytest.raises(ConfigError):
        VnpuConfig(num_ves_per_core=0)


def test_config_totals():
    cfg = VnpuConfig(num_chips=2, num_cores_per_chip=2,
                     num_mes_per_core=3, num_ves_per_core=1)
    assert cfg.total_cores == 4
    assert cfg.total_mes == 12
    assert cfg.total_eus == 16


def test_config_capped_by_physical():
    with pytest.raises(ConfigError):
        _cfg(mes=CORE.num_mes + 1).validate_against(CORE)
    with pytest.raises(ConfigError):
        _cfg(hbm=CORE.hbm_bytes * 2).validate_against(CORE)
    _cfg().validate_against(CORE)  # fits


def test_lifecycle_transitions():
    vnpu = VnpuInstance(config=_cfg(), vnpu_id=1)
    assert vnpu.state is VnpuState.REQUESTED
    vnpu.transition(VnpuState.MAPPED)
    vnpu.transition(VnpuState.ACTIVE)
    vnpu.transition(VnpuState.MAPPED)
    vnpu.transition(VnpuState.DESTROYED)
    with pytest.raises(LifecycleError):
        vnpu.transition(VnpuState.ACTIVE)


def test_lifecycle_rejects_skips():
    vnpu = VnpuInstance(config=_cfg(), vnpu_id=1)
    with pytest.raises(LifecycleError):
        vnpu.transition(VnpuState.ACTIVE)  # must map first


# ----------------------------------------------------------------------
# Mapper
# ----------------------------------------------------------------------
def test_spatial_mapping_respects_capacity():
    mapper = VnpuMapper([CORE], mode=MappingMode.SPATIAL)
    mapper.map(VnpuInstance(config=_cfg(mes=2, ves=2), vnpu_id=1))
    mapper.map(VnpuInstance(config=_cfg(mes=2, ves=2), vnpu_id=2))
    with pytest.raises(MappingError):
        mapper.map(VnpuInstance(config=_cfg(mes=1, ves=1), vnpu_id=3))


def test_temporal_mapping_allows_eu_oversubscription():
    mapper = VnpuMapper([CORE], mode=MappingMode.TEMPORAL)
    for vnpu_id in (1, 2, 3):
        mapper.map(VnpuInstance(
            config=_cfg(mes=4, ves=4, hbm=4 * GiB), vnpu_id=vnpu_id
        ))
    # Memory is still partitioned.
    with pytest.raises(MappingError):
        mapper.map(VnpuInstance(config=_cfg(hbm=CORE.hbm_bytes), vnpu_id=4))


def test_mapper_balances_load():
    mapper = VnpuMapper([CORE, CORE], mode=MappingMode.SPATIAL)
    first = mapper.map(VnpuInstance(config=_cfg(mes=3, ves=3), vnpu_id=1))
    second = mapper.map(VnpuInstance(config=_cfg(mes=1, ves=1), vnpu_id=2))
    assert first.core_index != second.core_index


def test_segment_bases_are_disjoint():
    mapper = VnpuMapper([CORE], mode=MappingMode.SPATIAL)
    a = VnpuInstance(config=_cfg(mes=2, ves=2, hbm=8 * GiB), vnpu_id=1)
    b = VnpuInstance(config=_cfg(mes=2, ves=2, hbm=8 * GiB), vnpu_id=2)
    mapper.map(a)
    mapper.map(b)
    assert a.hbm_segment_base == 0
    assert b.hbm_segment_base == 8  # 8 x 1 GiB segments after a


def test_unmap_releases_resources():
    mapper = VnpuMapper([CORE], mode=MappingMode.SPATIAL)
    a = VnpuInstance(config=_cfg(mes=4, ves=4), vnpu_id=1)
    mapper.map(a)
    mapper.unmap(a)
    assert a.state is VnpuState.DESTROYED
    b = VnpuInstance(config=_cfg(mes=4, ves=4), vnpu_id=2)
    assert mapper.map(b) is not None


def test_unmap_unknown_rejected():
    mapper = VnpuMapper([CORE])
    with pytest.raises(MappingError):
        mapper.unmap(VnpuInstance(config=_cfg(), vnpu_id=1))


# ----------------------------------------------------------------------
# Manager
# ----------------------------------------------------------------------
def test_manager_create_and_destroy():
    manager = VnpuManager([CORE])
    vnpu = manager.create(_cfg())
    assert vnpu.state is VnpuState.MAPPED
    assert manager.free_mes(0) == 2
    manager.destroy(vnpu.vnpu_id)
    assert manager.free_mes(0) == 4
    with pytest.raises(AllocationError):
        manager.get(vnpu.vnpu_id)


def test_manager_reconfigure_preserves_id():
    manager = VnpuManager([CORE])
    vnpu = manager.create(_cfg(mes=1, ves=1))
    replacement = manager.reconfigure(vnpu.vnpu_id, _cfg(mes=3, ves=3))
    assert replacement.vnpu_id == vnpu.vnpu_id
    assert replacement.config.num_mes_per_core == 3


def test_manager_collocation_query():
    manager = VnpuManager([CORE])
    a = manager.create(_cfg(mes=2, ves=2, hbm=4 * GiB))
    b = manager.create(_cfg(mes=2, ves=2, hbm=4 * GiB))
    assert [v.vnpu_id for v in manager.collocated_with(a.vnpu_id)] == [b.vnpu_id]


def test_manager_create_for_workload(me_graph):
    from repro.compiler.profiler import profile_graph

    manager = VnpuManager([CORE])
    profile = profile_graph(me_graph, CORE)
    vnpu = manager.create_for_workload(profile, total_eus=4)
    assert vnpu.config.num_mes_per_core >= vnpu.config.num_ves_per_core
