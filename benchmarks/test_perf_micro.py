"""Micro-benchmarks of the simulator's hot paths.

Not a paper artifact — these keep the substrate honest: simulator
performance is what makes the paper-scale experiments (hours of simulated
multi-million-IOPS hammering) tractable.
"""

import numpy as np
import pytest

from repro.dram import (
    CacheMode,
    DramAddress,
    DramGeometry,
    DramModule,
    FtlCpuCache,
    GenerationProfile,
    SecdedCodec,
    VulnerabilityModel,
)
from repro.dram.mapping import XorBankMapping
from repro.dram.trr import SAMPLING_POLICIES
from repro.ext4 import ADDR_INDIRECT, Credentials, Ext4Fs, crc32c
from repro.flash import FlashArray, FlashGeometry
from repro.ftl import FtlConfig, LinearL2p, PageMappingFtl
from repro.host.blockdev import BlockDevice
from repro.mitigations.encryption import TenantKey, encrypt_block
from repro.nvme import NvmeController
from repro.serve import ServeScenario, run_scenario
from repro.sim import SimClock
from repro.utrr import UtrrPipeline, build_utrr_target

GRANITE = GenerationProfile(name="granite", year=2021, ddr_type="T", min_rate_kps=1e9)
ALICE = Credentials(uid=1000, gid=1000)
#: One 4 KiB page, the size the §5 defenses see.
PAGE = bytes(range(256)) * 16


def build_stack(num_lbas=1024):
    """A small self-contained device stack for micro-benchmarks."""
    clock = SimClock()
    dram_geometry = DramGeometry.small(rows_per_bank=256, row_bytes=1024)
    vulnerability = VulnerabilityModel(GRANITE, dram_geometry, seed=1)
    dram = DramModule(dram_geometry, vulnerability, clock)
    blocks = -(-num_lbas // 8) + 8
    flash = FlashArray(
        FlashGeometry(
            channels=1,
            chips_per_channel=1,
            planes_per_chip=1,
            blocks_per_plane=blocks,
            pages_per_block=8,
            page_bytes=512,
        )
    )
    ftl = PageMappingFtl(
        flash, FtlCpuCache(dram, CacheMode.NONE), FtlConfig(num_lbas=num_lbas)
    )
    controller = NvmeController(ftl, clock)
    return controller, dram, ftl


@pytest.fixture
def dram():
    geometry = DramGeometry.small(rows_per_bank=256, row_bytes=1024)
    clock = SimClock()
    vulnerability = VulnerabilityModel(GRANITE, geometry, seed=1)
    return DramModule(geometry, vulnerability, clock)


def test_dram_write_read(benchmark, dram):
    dram.write(0, b"x" * 64)

    def op():
        dram.write(4096, b"y" * 64)
        return dram.read(4096, 64)

    assert benchmark(op) == b"y" * 64


def test_l2p_entry_roundtrip(benchmark):
    """One L2P entry lookup plus an update, through an FTL CPU cache that
    flushes on every access over an XOR-mapped module: the attack
    testbed's wiring of the FTL's DRAM."""
    geometry = DramGeometry.small(rows_per_bank=256, row_bytes=1024)
    dram = DramModule(
        geometry,
        VulnerabilityModel(GRANITE, geometry, seed=1),
        SimClock(),
        XorBankMapping(geometry),
    )
    l2p = LinearL2p(FtlCpuCache(dram, CacheMode.INVALIDATE_EACH_ACCESS), 0, 1024)
    l2p.initialize()
    counter = iter(range(10 ** 9))

    def op():
        lba = next(counter) % 1024
        ppa = l2p.lookup(lba)
        l2p.update(lba, lba if ppa is None else ppa + 1)

    benchmark(op)
    assert l2p.lookup(0) is not None


def test_dram_batch_hammer_window(benchmark, dram):
    dram.write(1024, b"\x00" * 1024)

    def op():
        return dram.hammer([(0, 0), (0, 2)], total_accesses=100_000, access_rate=10_000_000)

    result = benchmark(op)
    assert result.accesses == 100_000


def planted_probe(aggressor_count, policy="counter_lru"):
    """One planted onset-scan probe of U-TRR inference: ``aggressor_count``
    aggressors against a four-entry ``policy`` sampler, 512 cycles.  Each
    call rewrites the victims, opens a fresh window and runs the ACTs."""
    dram = build_utrr_target(
        {"tracker_capacity": 4, "refresh_threshold": 24, "sampling_policy": policy},
        seed=1,
    )
    pipeline = UtrrPipeline(dram)
    aggressors = [pipeline.aggressor(i) for i in range(aggressor_count)]
    sequence = [(0, row) for row in aggressors] * pipeline.cycles
    victims = [dram.mapping.address_of(DramAddress(0, row + 1, 0)) for row in aggressors]
    plant = b"\x00" * dram.geometry.row_bytes

    def op():
        for addr in victims:
            dram.write(addr, plant)
        dram.clock.advance(dram.refresh_interval)  # a fresh window
        return dram.activate_burst(sequence)

    return op


@pytest.mark.parametrize("policy", SAMPLING_POLICIES)
def test_dram_activate_burst(benchmark, policy):
    """Five aggressors overflow the sampler, so victims flip: each ACT the
    tracker does not hold takes the policy's full-tracker path."""
    assert benchmark(planted_probe(5, policy))


def test_dram_activate_burst_absorbed(benchmark):
    """Four aggressors: the sampler tracks every one, so TRR refreshes each
    victim before it can flip."""
    assert benchmark(planted_probe(4)) == []


def test_ftl_write_path(benchmark):
    controller, _, ftl = build_stack(num_lbas=1024)
    controller.create_namespace(1, 0, 1024)
    payload = b"z" * 512
    counter = iter(range(10 ** 9))

    def op():
        controller.write(1, next(counter) % 1024, payload)

    benchmark(op)


def test_nvme_read_path(benchmark):
    """One mapped read per call, NVMe command to NAND page: the read twin
    of :func:`test_ftl_write_path`."""
    controller, _, _ = build_stack(num_lbas=1024)
    controller.create_namespace(1, 0, 1024)
    payload = b"r" * 512
    controller.write_burst(1, list(range(1024)), payload)
    counter = iter(range(10 ** 9))

    def op():
        return controller.read(1, next(counter) % 1024)

    assert benchmark(op) == payload


def test_nvme_read_burst(benchmark):
    controller, _, _ = build_stack(num_lbas=1024)
    controller.create_namespace(1, 0, 1024)

    def op():
        return controller.read_burst(1, [0, 300], repeats=100_000)

    result = benchmark(op)
    assert result.ios == 200_000


def test_fs_write_read(benchmark):
    controller, _, _ = build_stack(num_lbas=2048)
    controller.create_namespace(1, 0, 2048)
    fs = Ext4Fs.mkfs(BlockDevice(controller, 1))
    fs.create("/bench", ALICE)

    def op():
        fs.write("/bench", b"benchmark file payload", ALICE)
        return fs.read("/bench", ALICE)

    assert benchmark(op) == b"benchmark file payload"


def test_fs_create_unlink(benchmark):
    """One create plus unlink in a directory of 64 files: the spray's
    directory path.  Every round leaves a tombstone, so the directory
    grows; a fixed number of rounds times the same sequence of
    directories on every revision."""
    controller, _, _ = build_stack(num_lbas=2048)
    controller.create_namespace(1, 0, 2048)
    fs = Ext4Fs.mkfs(BlockDevice(controller, 1))
    for index in range(64):
        fs.create("/.spray-c00-%06d" % index, ALICE)
    counter = iter(range(10 ** 9))

    def op():
        path = "/.spray-c01-%06d" % next(counter)
        fs.create(path, ALICE)
        fs.unlink(path, ALICE)

    benchmark.pedantic(op, rounds=200, warmup_rounds=10)
    assert len(fs.listdir("/", ALICE)) == 64


def test_fs_spray_file(benchmark):
    """The spray's per-file path: create an indirect file, write its
    block 12 (so the single indirect block is allocated), take its block
    map and unlink it."""
    controller, _, _ = build_stack(num_lbas=2048)
    controller.create_namespace(1, 0, 2048)
    fs = Ext4Fs.mkfs(BlockDevice(controller, 1))
    block = b"S" * fs.block_bytes
    counter = iter(range(10 ** 9))

    def op():
        path = "/.spray-c00-%06d" % next(counter)
        fs.create(path, ALICE, addressing=ADDR_INDIRECT)
        fs.write(path, block, ALICE, offset=12 * fs.block_bytes)
        layout = fs.file_layout(path, ALICE)
        fs.unlink(path, ALICE)
        return layout

    benchmark.pedantic(op, rounds=200, warmup_rounds=10)
    assert fs.listdir("/", ALICE) == []


# -- the §5 defenses' kernels, at the sizes the stack calls them with ----


def test_crc32c_page(benchmark):
    assert benchmark(crc32c, PAGE) == 0x9C71FE32


def test_encrypt_block_page(benchmark):
    """A fresh LBA each round, so every round computes its keystream."""
    key = TenantKey.derive("victim")
    lbas = iter(range(10 ** 9))

    def op():
        return encrypt_block(key, next(lbas), PAGE)

    assert len(benchmark(op)) == len(PAGE)


def test_secded_encode_one_word(benchmark):
    codec = SecdedCodec()
    word = np.array([0x0123456789ABCDEF], dtype=np.uint64)
    assert benchmark(codec.encode_words, word).tolist() == [0x9C]


# -- the serving scheduler, at few and many tenants ----------------------

#: The benign rotation of ``serve_fig2_16tenants.json``: (kind, weight).
FIG2_ROTATION = (("bursty_reader", 2), ("log_writer", 1), ("scan_reader", 1))


@pytest.mark.parametrize("tenants", [4, 256])
def test_serve_dispatch(benchmark, tenants):
    scenario = ServeScenario.from_dict({
        "name": "serve-dispatch",
        "seed": 1,
        "device": {"num_lbas": 1024, "profile": "granite"},
        "tenants": [
            {
                "name": "tenant-%d" % index,
                "kind": FIG2_ROTATION[index % 3][0],
                "weight": FIG2_ROTATION[index % 3][1],
                "ops": 8,
            }
            for index in range(tenants)
        ],
    })
    report = benchmark(run_scenario, scenario)
    assert sum(t["commands"] for t in report.tenants) == 8 * tenants
