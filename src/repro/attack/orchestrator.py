"""The end-to-end multi-cycle attack loop (§4.2).

Each cycle: spray -> hammer -> scan.  "If no bitflips are detected the
attacker can re-spray the system with new files, forcing the FTL to
re-shuffle all address mappings to reside in new memory rows.  By
repeating these steps enough times, the attacker can eventually dump the
content of the entire victim partition even as an unprivileged user."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.attack.exfiltrate import LeakRecord, make_leak_record
from repro.attack.hammer import HammerPlan, double_sided_plan, many_sided_plan
from repro.attack.profile import DeviceProfile
from repro.attack.recon import (
    AttackTriple,
    find_cross_partition_triples,
    require_triples,
)
from repro.attack.scan import ScanHit, scan_sprayed_files
from repro.attack.spray import (
    SprayRecord,
    spray_attacker_partition,
    spray_victim_filesystem,
    unspray_victim_filesystem,
)
from repro.errors import AttackError
from repro.scenarios import CloudTestbed


@dataclass
class AttackConfig:
    """Tunables of the end-to-end attack."""

    #: Maximum spray->hammer->scan repetitions.
    max_cycles: int = 10
    #: Sprayed files per cycle in the victim filesystem.  The paper could
    #: only fill ~5% of the victim partition due to SPDK limits; 25% is
    #: the §4.3 illustration.
    spray_files: int = 64
    #: Fraction of the attacker partition blanketed with malicious blocks
    #: (the paper's illustration uses 100%).
    attacker_spray_fraction: float = 1.0
    #: Simulated seconds of hammering per cycle ("a certain period (e.g.,
    #: 5 minutes) of hammering").
    hammer_seconds: float = 300.0
    #: "double-sided" (rotate over triples) or "many-sided" (one loop).
    plan: str = "double-sided"
    #: Cap on triples used per cycle (the paper found 32 usable sets).
    max_triples: int = 32
    #: Stop as soon as one usable leak lands.
    stop_on_first_leak: bool = True
    #: Use the wide spray layout (multi-target dump per flip; extension).
    wide_spray: bool = False

    def __post_init__(self) -> None:
        if self.plan not in ("double-sided", "many-sided"):
            raise AttackError("unknown hammer plan %r" % self.plan)
        if not 0 < self.attacker_spray_fraction <= 1:
            raise AttackError("attacker_spray_fraction must be in (0, 1]")


@dataclass
class CycleReport:
    """What one cycle did and found."""

    index: int
    sprayed: int
    hammer_ios: int
    activation_rate: float
    hits: List[ScanHit] = field(default_factory=list)
    flips_ground_truth: int = 0


@dataclass
class AttackResult:
    """Outcome of the full campaign."""

    cycles: List[CycleReport] = field(default_factory=list)
    leaks: List[LeakRecord] = field(default_factory=list)
    duration: float = 0.0

    @property
    def success(self) -> bool:
        return any(leak.category != "empty" for leak in self.leaks)

    @property
    def total_hits(self) -> int:
        return sum(len(cycle.hits) for cycle in self.cycles)


class FtlRowhammerAttack:
    """Drives the full §4 attack against a :class:`CloudTestbed`."""

    def __init__(
        self,
        testbed: CloudTestbed,
        config: Optional[AttackConfig] = None,
        know_hash_key: bool = True,
    ):
        self.testbed = testbed
        self.config = config or AttackConfig()
        #: The attacker's offline knowledge of this device model.
        #: ``know_hash_key=False`` models the keyed-L2P-randomization
        #: mitigation: the layout is known, the per-device key is not.
        self.profile = DeviceProfile.from_device(
            testbed.controller, know_hash_key=know_hash_key
        )
        self._spray_records: List[SprayRecord] = []

    # ------------------------------------------------------------------

    def plan_triples(self) -> List[AttackTriple]:
        """Offline recon: cross-partition aggressor/victim row triples."""
        triples = find_cross_partition_triples(
            self.profile,
            attacker_ns=self.testbed.attacker_ns,
            victim_ns=self.testbed.victim_ns,
            limit=self.config.max_triples,
        )
        require_triples(triples, "cross-partition recon")
        return triples

    def _target_candidates(self) -> List[int]:
        """Victim filesystem blocks worth aiming the forged pointers at.

        The attacker cannot know where secrets are; it sweeps the victim
        partition's data region (skipping its own metadata region guess).
        """
        fs = self.testbed.victim_fs
        return list(range(fs.sb.data_start, fs.sb.total_blocks))

    def _build_plans(self, triples: List[AttackTriple]) -> List[HammerPlan]:
        ns = self.testbed.attacker_ns
        if self.config.plan == "many-sided":
            return [many_sided_plan(triples, ns)]
        return [double_sided_plan(triple, ns) for triple in triples]

    # ------------------------------------------------------------------

    def run(self) -> AttackResult:
        """Execute up to ``max_cycles`` spray->hammer->scan cycles."""
        testbed = self.testbed
        config = self.config
        tracer = getattr(testbed, "tracer", None)
        result = AttackResult()
        began = testbed.clock.now

        triples = self.plan_triples()
        plans = self._build_plans(triples)
        targets = self._target_candidates()

        # Attacker partition spray happens once: raw blocks stay put.
        attacker_ns = testbed.attacker_ns
        spray_count = int(attacker_ns.num_lbas * config.attacker_spray_fraction)
        spray_attacker_partition(
            testbed.attacker_vm.blockdev,
            lbas=range(spray_count),
            target_fs_blocks=targets,
        )
        # Trim the aggressor LBAs: their L2P entries stay where they are
        # (that is all hammering needs), but reads of trimmed blocks skip
        # flash entirely — the §3 fast path that gets the access rate above
        # the flip threshold.  Bonus: the malicious payloads just written
        # there remain in flash as stale pages a flip can still land on.
        aggressor_lbas = sorted({lba for plan in plans for lba in plan.lbas})
        if aggressor_lbas:
            testbed.attacker_vm.blockdev.trim_burst(aggressor_lbas)

        io_rate = testbed.attacker_vm.achieved_io_rate(mapped=False)
        ios_per_cycle = int(io_rate * config.hammer_seconds)

        for cycle_index in range(config.max_cycles):
            cycle_start = testbed.clock.now
            # Spray (re-spray): fresh files, fresh mappings.
            unspray_victim_filesystem(
                testbed.victim_fs, testbed.attacker_process, self._spray_records
            )
            self._spray_records = spray_victim_filesystem(
                testbed.victim_fs,
                testbed.attacker_process,
                count=config.spray_files,
                target_fs_blocks=targets,
                prefix="/.spray-c%02d" % cycle_index,
                wide=config.wide_spray,
            )

            # Hammer: split the cycle's I/O budget over the plans.
            flips_before = testbed.flips_observed()
            report = CycleReport(
                index=cycle_index,
                sprayed=len(self._spray_records),
                hammer_ios=0,
                activation_rate=0.0,
            )
            share = max(1, ios_per_cycle // max(1, len(plans)))
            for plan in plans:
                burst = plan.execute(testbed.attacker_vm, total_ios=share)
                report.hammer_ios += burst.ios
                report.activation_rate = max(
                    report.activation_rate, burst.activation_rate
                )
                if tracer is not None:
                    tracer.emit(
                        "attack.hammer",
                        plan=plan.name,
                        lbas=len(plan.lbas),
                        ios=burst.ios,
                        flips=burst.flip_count,
                        activation_rate=burst.activation_rate,
                    )
            report.flips_ground_truth = testbed.flips_observed() - flips_before

            # Scan.
            report.hits = scan_sprayed_files(
                testbed.victim_fs, testbed.attacker_process, self._spray_records
            )
            result.cycles.append(report)
            if tracer is not None:
                tracer.emit_at(
                    "attack.cycle",
                    cycle_start,
                    index=cycle_index,
                    sprayed=report.sprayed,
                    hammer_ios=report.hammer_ios,
                    hits=len(report.hits),
                    flips=report.flips_ground_truth,
                    dur=testbed.clock.now - cycle_start,
                )
            for hit in report.hits:
                if hit.usable:
                    result.leaks.append(
                        make_leak_record(hit.record.path, hit.leaked)
                    )
            if result.leaks and config.stop_on_first_leak:
                break

        result.duration = testbed.clock.now - began
        return result
