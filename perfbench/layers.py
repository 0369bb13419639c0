"""Per-layer spans and counts, recorded from outside the program.

:class:`LayerTracer` wraps each layer's public entry points at class (or
module) level before any stack is built, and keeps everything in memory:

* a span opens whenever control crosses *into* a layer from another one
  (a call that stays inside the layer it is already in opens no span), so
  ``<layer>.calls`` counts layer entries and an internal refactor that
  adds or removes a same-layer hop does not move it;
* a layer's self time is its spans' duration minus the part covered by
  nested spans of other layers, so the self times of all layers plus the
  benchmark's own unattributed time add up to the traced pass;
* counts are read from the program's own registries and snapshots
  (``DramModule.metrics``, ``PageMappingFtl.stats()``, ...) of every
  instance built during the pass, plus a few call counters
  (``QueuePair.outstanding`` reads, ``Bank.flip_bit`` calls, ``crc32c``
  calls and bytes, ciphered blocks).

An entry point that no longer exists is listed in :attr:`missing` instead
of failing the run, so the benchmark keeps working across refactors that
rename or fold a method.

Spans use the monotonic wall clock: it costs a fifth of the per-process
CPU clock per read, and the traced pass is single-threaded with no I/O.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Layers in report order.  ``setup`` holds the stack builders.
LAYERS = (
    "dram",
    "serve",
    "nvme",
    "ftl",
    "flash",
    "faults",
    "ext4",
    "mitigations",
    "host",
    "attack",
    "utrr",
    "setup",
)

#: Sentinel: wrap every public plain method, classmethod and staticmethod
#: the class itself defines.
PUBLIC = None

#: (layer, module, class, method names) for class-level entry points.
CLASS_ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Sequence[str]]], ...] = (
    ("dram", "repro.dram.module", "DramModule", (
        "read", "write", "activate", "hammer", "access_batch",
        "activate_burst", "read_batch", "write_batch",
    )),
    ("dram", "repro.dram.cache", "FtlCpuCache", PUBLIC),
    ("serve", "repro.serve.scheduler", "ServeScheduler", (
        "run", "durability_audit",
    )),
    # The controller rebinds ``submit`` and the burst entry points to
    # their underscore implementations when built without a tracer, so
    # both spellings are entry points.
    ("nvme", "repro.nvme.controller", "NvmeController", (
        "submit", "_submit", "read", "write", "trim", "flush",
        "read_burst", "_read_burst", "write_burst", "_write_burst",
        "trim_burst", "_trim_burst",
    )),
    ("ftl", "repro.ftl.ftl", "PageMappingFtl", (
        "read", "write", "trim", "trim_many", "flush", "recover",
    )),
    ("ftl", "repro.ftl.gc", "GreedyGarbageCollector", ("collect",)),
    ("flash", "repro.flash.array", "FlashArray", (
        "read_page", "program_page", "erase_block", "inspect_page",
        "read_oob",
    )),
    ("faults", "repro.faults.injector", "FaultInjector", (
        "on_read", "on_program", "on_erase",
    )),
    ("ext4", "repro.ext4.fs", "Ext4Fs", PUBLIC),
    ("host", "repro.host.blockdev", "BlockDevice", (
        "read_block", "write_block", "trim_block", "flush", "read_burst",
        "write_burst", "trim_burst",
    )),
    ("attack", "repro.attack.orchestrator", "FtlRowhammerAttack", ("run",)),
    ("utrr", "repro.utrr.pipeline", "UtrrPipeline", ("infer",)),
    ("utrr", "repro.utrr.stage", "AlignToRefreshStage", ("run",)),
    ("utrr", "repro.utrr.stage", "DisableRefreshStage", ("run",)),
    ("utrr", "repro.utrr.stage", "HammerStage", ("run",)),
    ("utrr", "repro.utrr.stage", "BitflipCheckStage", ("run", "plant")),
)

#: (layer, module, function names) for module-level entry points.  Each
#: is rebound in every loaded ``repro`` module that holds it, so callers
#: that imported it by name are covered too.
FUNCTION_ENTRY_POINTS: Tuple[Tuple[str, str, Sequence[str]], ...] = (
    ("ext4", "repro.ext4.crc32c", ("crc32c",)),
    ("mitigations", "repro.mitigations.encryption", (
        "encrypt_block", "decrypt_block",
    )),
    ("setup", "repro.scenarios", ("build_cloud_testbed",)),
    ("setup", "repro.testkit.fixtures", ("build_stack",)),
    ("setup", "repro.serve.workload", ("generate_workload",)),
    ("setup", "repro.utrr.pipeline", ("build_utrr_target",)),
)

#: Classes whose instances built during a pass are read for counts.
INSTANCE_CLASSES = (
    ("dram", "repro.dram.module", "DramModule"),
    ("ftl", "repro.ftl.ftl", "PageMappingFtl"),
    ("flash", "repro.flash.array", "FlashArray"),
    ("nvme", "repro.nvme.controller", "NvmeController"),
    ("faults", "repro.faults.injector", "FaultInjector"),
)

#: Per-layer counts a workload reads from its own outputs; they read 0 on
#: the workloads that do not produce them.
OUTPUT_COUNTS = (
    "serve.retries",
    "serve.hedges",
    "serve.throttled",
    "serve.benign_p99_ms",
    "attack.hits",
    "utrr.probes",
)

_CALL_COUNTERS = (
    "polls",
    "dispatches",
    "flip_bit_calls",
    "crc32c_calls",
    "crc32c_bytes",
    "blocks_ciphered",
)


def _registry_value(registry, name: str) -> float:
    """A metric from a program registry's snapshot, 0 when never created."""
    key = "%s.%s" % (registry.prefix, name) if registry.prefix else name
    return registry.snapshot().get(key, 0)


class LayerTracer:
    """Installs the wrappers, aggregates spans and counts per pass."""

    def __init__(self):
        #: Open spans, innermost last: [layer, start, time in child spans].
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}
        self.instances: Dict[str, List[Any]] = {}
        #: ``module.Class.method`` / ``module.function`` names not found.
        self.missing: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Forget the previous pass.  The wrappers stay installed and hold
        these very dicts, so they are cleared in place."""
        self._stack.clear()
        self.self_s.update(dict.fromkeys(LAYERS, 0.0))
        self.calls.update(dict.fromkeys(LAYERS, 0))
        self.counters.update(dict.fromkeys(_CALL_COUNTERS, 0))
        for layer, _module, _class in INSTANCE_CLASSES:
            self.instances[layer] = []

    # -- span wrappers ----------------------------------------------------

    def _span(self, layer: str, fn: Callable, count: Optional[Callable] = None):
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(args)
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            calls[layer] += 1
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, layer: str, cls: type, names) -> None:
        if names is PUBLIC:
            names = [
                name
                for name, attr in vars(cls).items()
                if not name.startswith("_")
                and (
                    isinstance(attr, (classmethod, staticmethod))
                    or (callable(attr) and not isinstance(attr, type))
                )
            ]
        for name in names:
            attr = cls.__dict__.get(name)
            if attr is None:
                self.missing.append(
                    "%s.%s.%s" % (cls.__module__, cls.__qualname__, name)
                )
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self._span(layer, attr.__func__))
            else:
                wrapped = self._span(layer, attr)
            self._set(cls, name, wrapped)

    def _rebind_everywhere(self, original: Any, replacement: Any) -> None:
        import sys

        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr_name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr_name, replacement)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; call after imports, before any build."""
        for layer, module_name, class_name, names in CLASS_ENTRY_POINTS:
            cls = self._lookup(module_name, class_name)
            if cls is not None:
                self._wrap_class(layer, cls, names)
        counters = self.counters

        def crc32c_calls(args):
            counters["crc32c_calls"] += 1
            counters["crc32c_bytes"] += len(args[0])

        def blocks_ciphered(args):
            counters["blocks_ciphered"] += 1

        hooks = {"ext4": crc32c_calls, "mitigations": blocks_ciphered}
        for layer, module_name, names in FUNCTION_ENTRY_POINTS:
            done = set()
            for name in names:
                fn = self._lookup(module_name, name)
                if fn is None or id(fn) in done:
                    continue
                done.add(id(fn))
                self._rebind_everywhere(
                    fn, self._span(layer, fn, hooks.get(layer))
                )
        self._install_counters()
        self._install_instance_logs()

    def _lookup(self, module_name: str, name: str):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(module_name)
            return None
        value = getattr(module, name, None)
        if value is None:
            self.missing.append("%s.%s" % (module_name, name))
        return value

    def _install_counters(self) -> None:
        counters = self.counters
        queue_pair = self._lookup("repro.nvme.queue", "QueuePair")
        prop = None if queue_pair is None else queue_pair.__dict__.get(
            "outstanding"
        )
        if isinstance(prop, property):
            getter = prop.fget

            def outstanding(qpair):
                counters["polls"] += 1
                return getter(qpair)

            self._set(queue_pair, "outstanding", property(outstanding))
        elif queue_pair is not None:
            self.missing.append("repro.nvme.queue.QueuePair.outstanding")
        for module_name, class_name, name, counter in (
            ("repro.serve.scheduler", "ServeScheduler", "_dispatch", "dispatches"),
            ("repro.dram.bank", "Bank", "flip_bit", "flip_bit_calls"),
        ):
            cls = self._lookup(module_name, class_name)
            fn = None if cls is None else cls.__dict__.get(name)
            if fn is None:
                if cls is not None:
                    self.missing.append(
                        "%s.%s.%s" % (module_name, class_name, name)
                    )
                continue
            self._set(cls, name, self._counted(fn, counter))

    def _counted(self, fn: Callable, counter: str) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install_instance_logs(self) -> None:
        for layer, module_name, class_name in INSTANCE_CLASSES:
            cls = self._lookup(module_name, class_name)
            if cls is None:
                continue
            if "__init__" not in cls.__dict__:
                self.missing.append("%s.%s.__init__" % (module_name, class_name))
                continue
            self._set(
                cls, "__init__", self._logged(cls.__dict__["__init__"], layer)
            )

    def _logged(self, init: Callable, layer: str) -> Callable:
        instances = self.instances

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances[layer].append(obj)

        return wrapper

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- reading a pass ---------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Self times, entry counts and registry counts of the pass."""
        out: Dict[str, float] = dict.fromkeys(OUTPUT_COUNTS, 0)
        for layer in LAYERS:
            out["%s.self_s" % layer] = self.self_s[layer]
        for layer in ("dram", "nvme", "ftl"):
            out["%s.calls" % layer] = self.calls[layer]

        drams = self.instances["dram"]
        flips = sum(_registry_value(d.metrics, "flips") for d in drams)
        out["dram.activations"] = sum(
            _registry_value(d.metrics, "activations") for d in drams
        )
        out["dram.flips"] = flips
        out["dram.flip_bit_calls"] = self.counters["flip_bit_calls"]
        out["dram.flip_yield"] = (
            flips / self.counters["flip_bit_calls"]
            if self.counters["flip_bit_calls"]
            else 0.0
        )
        out["dram.ecc_corrected"] = sum(
            _registry_value(d.metrics, "ecc_corrected") for d in drams
        )

        dispatches = self.counters["dispatches"]
        out["serve.polls_per_cmd"] = (
            self.counters["polls"] / dispatches if dispatches else 0.0
        )

        out["nvme.errors"] = sum(
            _registry_value(c.metrics, "errors")
            for c in self.instances["nvme"]
        )

        host_writes = moved = recoveries = 0
        for ftl in self.instances["ftl"]:
            stats = ftl.stats()
            host_writes += stats.get("ftl.host_writes", 0)
            moved += stats.get("ftl.gc_moved_pages", 0)
            recoveries += stats.get("ftl.recoveries", 0)
        out["ftl.host_writes"] = host_writes
        out["ftl.write_amp"] = (
            (host_writes + moved) / host_writes if host_writes else 0.0
        )
        out["ftl.gc_moved_pages"] = moved
        out["ftl.recoveries"] = recoveries

        for name in ("reads", "programs", "erases"):
            out["flash.%s" % name] = sum(
                _registry_value(f.metrics, name)
                for f in self.instances["flash"]
            )
        out["faults.injected"] = sum(
            injector.stats().get("total", 0)
            for injector in self.instances["faults"]
        )
        out["ext4.crc32c_calls"] = self.counters["crc32c_calls"]
        out["ext4.crc32c_bytes"] = self.counters["crc32c_bytes"]
        out["mitigations.blocks_ciphered"] = self.counters["blocks_ciphered"]
        out["run.missing_entry_points"] = len(self.missing)
        return out
