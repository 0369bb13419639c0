"""The §4.3 success-probability analysis, analytic and Monte Carlo.

Paper notation:

* ``LB`` / ``PB`` — logical / physical address counts of the SSD;
* ``C_v`` / ``C_a`` — blocks of the victim / attacker partitions;
* ``F_v`` / ``F_a`` — sprayed-file blocks the attacker placed in each.

A sprayed victim file is half indirect block, half data block, so the
victim partition holds ``F_v / 2`` sprayed indirect blocks and the device
holds ``F_v / 2 + F_a`` malicious data blocks in total.  A random flip is
useful when it (a) hits the L2P entry of a sprayed indirect block —
probability ``(F_v/2) / C_v`` — and (b) redirects it onto a malicious
block — probability ``(F_v/2 + F_a) / PB``.  Hence

    P = F_v (F_v + 2 F_a) / (4 C_v PB)

The paper's illustration (equal partitions, victim 25 % sprayed, attacker
100 % sprayed) gives ~7 % per cycle and >50 % within 10 cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.sim.rng import RngStream


@dataclass(frozen=True)
class ProbabilityParameters:
    """One instantiation of the §4.3 model."""

    victim_blocks: int  # C_v
    attacker_blocks: int  # C_a
    victim_sprayed: int  # F_v
    attacker_sprayed: int  # F_a
    physical_blocks: int  # PB

    def __post_init__(self) -> None:
        if min(
            self.victim_blocks,
            self.attacker_blocks,
            self.physical_blocks,
        ) <= 0:
            raise ConfigError("partition and device sizes must be positive")
        if not 0 <= self.victim_sprayed <= self.victim_blocks:
            raise ConfigError("F_v must fit the victim partition")
        if not 0 <= self.attacker_sprayed <= self.attacker_blocks:
            raise ConfigError("F_a must fit the attacker partition")


def single_cycle_success_probability(params: ProbabilityParameters) -> float:
    """The paper's closed form: F_v (F_v + 2 F_a) / (4 C_v PB)."""
    f_v = params.victim_sprayed
    f_a = params.attacker_sprayed
    return (f_v * (f_v + 2 * f_a)) / (4 * params.victim_blocks * params.physical_blocks)


def cumulative_success_probability(per_cycle: float, cycles: int) -> float:
    """Probability of at least one success in ``cycles`` repetitions."""
    if not 0 <= per_cycle <= 1:
        raise ConfigError("per-cycle probability must be in [0, 1]")
    if cycles < 0:
        raise ConfigError("cycles cannot be negative")
    return 1.0 - (1.0 - per_cycle) ** cycles


MAX_SANE_CYCLES = 10_000_000


def cycles_to_reach(per_cycle: float, target: float) -> int:
    """Smallest cycle count whose cumulative success meets ``target``.

    Closed form: ``1 - (1-p)**c >= t  ⇔  c >= log1p(-t) / log1p(-p)``, so
    the answer is ``ceil`` of that ratio — then nudged by at most a step
    or two so the boundary is decided by
    :func:`cumulative_success_probability` itself, exactly as the original
    linear search decided it, rather than by log-domain rounding.
    """
    if not 0 < per_cycle <= 1 or not 0 < target < 1:
        raise ConfigError("probabilities must be in (0, 1)")
    if per_cycle == 1.0:
        return 1
    estimate = math.log1p(-target) / math.log1p(-per_cycle)
    cycles = max(1, math.ceil(estimate) - 1)
    while cumulative_success_probability(per_cycle, cycles) < target:
        cycles += 1
        if cycles > MAX_SANE_CYCLES:
            raise ConfigError("target unreachable in sane cycle counts")
    while cycles > 1 and cumulative_success_probability(per_cycle, cycles - 1) >= target:
        cycles -= 1
    if cycles > MAX_SANE_CYCLES:
        raise ConfigError("target unreachable in sane cycle counts")
    return cycles


# -- vectorized closed-form grid evaluation -----------------------------
#
# The ``probability_grid`` trial kind evaluates the §4.3 closed form
# through the helpers below rather than the scalar functions above,
# because its committed records were computed with ``np.power``.  On 2 of
# the 80 points of ``examples/specs/probability_grid.json``, Python's
# ``**`` gives a ``cumulative`` one ulp (the last binary digit) away, so
# switching to the scalar functions would change those records' bytes.


def grid_single_cycle(
    victim_blocks: np.ndarray,
    victim_sprayed: np.ndarray,
    attacker_sprayed: np.ndarray,
    physical_blocks: np.ndarray,
) -> np.ndarray:
    """``F_v (F_v + 2 F_a) / (4 C_v PB)`` over aligned arrays.

    Matches :func:`single_cycle_success_probability` bit-for-bit while the
    exact numerator and denominator stay below ``2**53``; beyond it
    Python's big-int division rounds once where float64 rounds twice.
    """
    f_v = np.asarray(victim_sprayed, dtype=np.float64)
    f_a = np.asarray(attacker_sprayed, dtype=np.float64)
    c_v = np.asarray(victim_blocks, dtype=np.float64)
    p_b = np.asarray(physical_blocks, dtype=np.float64)
    return (f_v * (f_v + 2.0 * f_a)) / (4.0 * c_v * p_b)


def grid_cumulative(per_cycle: np.ndarray, cycles: np.ndarray) -> np.ndarray:
    """``1 - (1-p)**c`` elementwise, with ``np.power`` (see above)."""
    base = 1.0 - np.asarray(per_cycle, dtype=np.float64)
    return 1.0 - np.power(base, np.asarray(cycles, dtype=np.float64))


def grid_cycles_to_target(
    per_cycle: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`cycles_to_reach`: smallest c with
    ``1 - (1-p)**c >= target``, elementwise, same boundary semantics."""
    p = np.asarray(per_cycle, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if np.any((p <= 0) | (p > 1)) or np.any((t <= 0) | (t >= 1)):
        raise ConfigError("probabilities must be in (0, 1)")
    with np.errstate(divide="ignore"):
        estimate = np.log1p(-t) / np.log1p(-p)
    estimate = np.where(p >= 1.0, 1.0, estimate)
    estimate = np.minimum(estimate, float(MAX_SANE_CYCLES) + 2.0)
    cycles = np.maximum(np.ceil(estimate) - 1.0, 1.0)
    # The log-domain estimate is within a step or two of the boundary;
    # let the cumulative form decide it exactly, as the scalar path does.
    for _ in range(4):
        low = grid_cumulative(p, cycles) < t
        if not np.any(low):
            break
        cycles = np.where(low, cycles + 1.0, cycles)
    else:
        while True:
            low = grid_cumulative(p, cycles) < t
            if not np.any(low):
                break
            cycles = np.where(low, cycles + 1.0, cycles)
            if np.any(cycles[low] > MAX_SANE_CYCLES):
                raise ConfigError("target unreachable in sane cycle counts")
    while True:
        high = (cycles > 1.0) & (grid_cumulative(p, cycles - 1.0) >= t)
        if not np.any(high):
            break
        cycles = np.where(high, cycles - 1.0, cycles)
    if np.any(cycles > MAX_SANE_CYCLES):
        raise ConfigError("target unreachable in sane cycle counts")
    return cycles.astype(np.int64)


def paper_example_parameters(physical_blocks: int = 262_144) -> ProbabilityParameters:
    """§4.3's illustration: ``C_a = C_v = PB/2 = LB/2``, the attacker fills
    25 % of the victim partition and 100 % of its own."""
    half = physical_blocks // 2
    return ProbabilityParameters(
        victim_blocks=half,
        attacker_blocks=half,
        victim_sprayed=half // 4,
        attacker_sprayed=half,
        physical_blocks=physical_blocks,
    )


def monte_carlo_success_rate(
    params: ProbabilityParameters,
    trials: int,
    seed: int = 0,
    spawn_key: Optional[Sequence[object]] = None,
) -> float:
    """Simulate the two-event model directly: a flip lands on a uniform
    victim LBA, and its new PBA is uniform over the device.

    Vectorized; agreement with the closed form validates the formula (and
    our reading of it).

    ``spawn_key`` names the RNG stream drawn under ``seed``: the stream is
    ``RngStream(seed, *spawn_key)``, defaulting to the historical
    ``("monte-carlo",)``.  The sweep engine passes each trial's spawn key
    here, so an engine-driven trial and a direct call with the same
    ``(seed, spawn_key)`` consume identical random streams — no hidden
    dependence on global RNG ordering.
    """
    if trials <= 0:
        raise ConfigError("need at least one trial")
    labels = tuple(spawn_key) if spawn_key is not None else ("monte-carlo",)
    rng = RngStream(seed, *labels).generator
    sprayed_indirect = params.victim_sprayed // 2
    malicious_total = params.victim_sprayed // 2 + params.attacker_sprayed
    # Event A: flipped entry belongs to a sprayed indirect block.  Model
    # the sprayed indirect blocks as the first `sprayed_indirect` of the
    # C_v victim LBAs (uniformity makes the labelling irrelevant).
    flip_lba = rng.integers(0, params.victim_blocks, size=trials)
    hit_indirect = flip_lba < sprayed_indirect
    # Event B: the corrupted entry now points at a malicious physical block.
    new_pba = rng.integers(0, params.physical_blocks, size=trials)
    hit_malicious = new_pba < malicious_total
    return float(np.mean(hit_indirect & hit_malicious))


def monte_carlo_study(
    params: ProbabilityParameters,
    trials: int,
    seed: int = 0,
    workers: int = 0,
    shard_size: int = 250_000,
) -> float:
    """Monte Carlo estimate via the sweep engine, sharded for parallelism.

    The trial count is split into equal shards (each at most ``shard_size``
    draws, each with its own spawn-key-derived stream) that the engine runs
    serially or on a worker pool; shard rates are averaged.  The estimate
    is identical for any ``workers`` value, and every shard can be replayed
    in isolation from its spawn key.  The effective trial count is rounded
    up to ``shards * per_shard`` — never below ``trials``.
    """
    if trials <= 0:
        raise ConfigError("need at least one trial")
    if shard_size <= 0:
        raise ConfigError("shard_size must be positive")
    from repro.engine import EngineConfig, SweepEngine, SweepSpec

    shards = -(-trials // shard_size)
    per_shard = -(-trials // shards)
    spec = SweepSpec(
        name="monte-carlo-study",
        kind="monte_carlo",
        seed=seed,
        repeats=shards,
        base={
            "trials": per_shard,
            "victim_blocks": params.victim_blocks,
            "attacker_blocks": params.attacker_blocks,
            "victim_sprayed": params.victim_sprayed,
            "attacker_sprayed": params.attacker_sprayed,
            "physical_blocks": params.physical_blocks,
        },
    )
    report = SweepEngine(spec, config=EngineConfig(workers=workers)).run()
    if not report.ok:
        raise ConfigError(
            "monte carlo shards failed: %s" % report.failed_trials
        )
    rates = [record["result"]["success_rate"] for record in report.records]
    return float(sum(rates) / len(rates))
