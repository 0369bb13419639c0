"""Shared device profiles and the one device-stack builder.

Extracted from ``tests/conftest.py`` so tests, examples, the fuzzer and
the §4 cloud testbed (:func:`repro.scenarios.build_cloud_testbed`)
assemble the full device stack (DRAM + flash + FTL + NVMe) in one place
instead of each keeping a private copy.
"""

from __future__ import annotations

from repro.dram import (
    CacheMode,
    DramGeometry,
    DramModule,
    FtlCpuCache,
    GenerationProfile,
    VulnerabilityModel,
    trr_from_config,
)
from repro.flash import FlashArray, FlashGeometry
from repro.ftl import FtlConfig, PageMappingFtl
from repro.nvme import DeviceTimingModel, NvmeController
from repro.sim import SimClock

#: DRAM profile that never flips — for functional tests.
GRANITE = GenerationProfile(name="granite", year=2021, ddr_type="T", min_rate_kps=1e9)

#: DRAM profile that flips after ~64 hammer accesses per window, with every
#: row vulnerable — for attack-path tests.
FRAGILE = GenerationProfile(
    name="fragile",
    year=2021,
    ddr_type="T",
    min_rate_kps=1.0,
    row_vulnerable_fraction=1.0,
    mean_weak_cells=4.0,
    threshold_spread=0.2,
)

SMALL_FLASH = FlashGeometry(
    channels=2,
    chips_per_channel=1,
    planes_per_chip=1,
    blocks_per_plane=16,
    pages_per_block=8,
    page_bytes=512,
)

SMALL_DRAM = DramGeometry.small(rows_per_bank=256, row_bytes=1024)


def build_stack(
    profile=GRANITE,
    seed=1,
    num_lbas=192,
    flash_geometry=None,
    dram_geometry=SMALL_DRAM,
    cache_mode=CacheMode.NONE,
    layout="linear",
    timing=None,
    rate_limiter=None,
    trr=None,
    para=None,
    ecc=False,
    mapping=None,
    refresh_interval=0.064,
    l2p_key=0x9E3779B97F4A7C15,
    dif=False,
    write_buffer_pages=0,
    spare_blocks=0,
    fault_plan=None,
    clock=None,
    tracer=None,
    trace_path=None,
    trace_max_events=1_000_000,
):
    """Assemble a complete device (small by default); returns
    (controller, dram, ftl).

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) attaches a fault
    injector to the flash array; ``l2p_key``, ``dif``,
    ``write_buffer_pages`` and ``spare_blocks`` forward to
    :class:`FtlConfig`, and ``refresh_interval`` to the DRAM module.

    Observability: pass a pre-built ``tracer`` (its clock must be the
    ``clock`` you also pass), or just ``trace_path`` to have the stack
    stream a JSONL trace there.  The tracer is threaded through every
    layer and is reachable afterwards as ``controller.tracer``.
    """
    if flash_geometry is None:
        if num_lbas <= 192:
            flash_geometry = SMALL_FLASH
        else:
            # Enough pages for the logical space plus GC headroom.
            blocks = -(-num_lbas // 8) + 8
            flash_geometry = FlashGeometry(
                channels=1,
                chips_per_channel=1,
                planes_per_chip=1,
                blocks_per_plane=blocks,
                pages_per_block=8,
                page_bytes=512,
            )
    if clock is None:
        clock = SimClock()
    if tracer is None and trace_path is not None:
        from repro.trace import Tracer

        tracer = Tracer(clock, path=trace_path, max_events=trace_max_events)
    vuln = VulnerabilityModel(profile, dram_geometry, seed=seed)
    dram = DramModule(
        dram_geometry,
        vuln,
        clock,
        mapping=mapping,
        trr=trr_from_config(trr),
        para=para,
        ecc=ecc,
        refresh_interval=refresh_interval,
        tracer=tracer,
    )
    memory = FtlCpuCache(dram, cache_mode)
    injector = None
    if fault_plan is not None and not fault_plan.is_null:
        from repro.faults import FaultInjector

        injector = FaultInjector(fault_plan, tracer=tracer)
    flash = FlashArray(flash_geometry, injector=injector, tracer=tracer)
    ftl = PageMappingFtl(
        flash,
        memory,
        FtlConfig(
            num_lbas=num_lbas,
            l2p_layout=layout,
            l2p_key=l2p_key,
            dif=dif,
            write_buffer_pages=write_buffer_pages,
            spare_blocks=spare_blocks,
        ),
        tracer=tracer,
    )
    controller = NvmeController(
        ftl,
        clock,
        timing=timing or DeviceTimingModel(),
        rate_limiter=rate_limiter,
        tracer=tracer,
    )
    return controller, dram, ftl
