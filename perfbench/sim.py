"""The three simulation workloads: inputs, one operation, its oracle.

Each workload class is built from the run's seed (that is the
benchmark's set-up) and then exposes a fixed batch of operations:

* ``ops`` — the batch's inputs, in order;
* ``run(op)`` — one operation on the current kernel tier, returning
  its output (the part of the run the benchmark times);
* ``check(op, out)`` — True when the output is right;
* ``identity(out)`` — the simulated results that must not depend on
  the kernel tier (compared against the reference tier);
* ``counters(outs)`` — exact counts from the public rollups.

Only public ``repro`` APIs are used.  See README.md for why each
workload exists and how the seed maps to its inputs.
"""

import random

import numpy as np

from repro.algorithms import distributed_matmul
from repro.analysis import engine_stats, recovery_stats, reliability_stats
from repro.core.config import MachineConfig
from repro.core.machine import TSeriesMachine
from repro.core.specs import PAPER_SPECS
from repro.cp.assembler import assemble
from repro.cp.cpu import CPU
from repro.events import Engine, FaultLog
from repro.occam.compiler import OccamCompiler, variables_snapshot
from repro.occam.parser import parse
from repro.system import failures
from repro.system.recovery import (FaultTolerantRun, RingStencilWorkload,
                                   compressed_timescale_specs)

ENGINE_COUNTERS = ("events_processed", "heap_pushes", "fast_lane_hits")
VAU_COUNTERS = ("vau_chain_model", "chain_ops_fused", "batched_elements")


def _engine_counts(engine) -> dict:
    stats = engine_stats(engine)
    counts = {key: stats[key] for key in ENGINE_COUNTERS}
    counts.update({key: stats["vau_batch"][key] for key in VAU_COUNTERS})
    counts["sim_ns"] = engine.now
    return counts


def _sum_counts(outs) -> dict:
    total = {}
    for out in outs:
        for key, value in out["counts"].items():
            total[key] = total.get(key, 0) + value
    return total


# -- e13b_recovery --------------------------------------------------------


def _halt_times(schedule) -> list:
    return [f.time_ns for f in schedule
            if f.kind == failures.FAULT_NODE_HALT]


class E13bRecovery:
    """Checkpointed 8-rank ring stencils under Poisson node halts."""

    name = "e13b_recovery"
    DIMENSION = 3
    STEPS = 400
    PAD_NS = 10_000_000
    HORIZON_NS = int(120e9)
    INTERVAL_MIX = (80, 160, 320)
    #: Cells per batch: each interval of INTERVAL_MIX this many times,
    #: so the batch averages over several halt positions.
    CELLS_PER_INTERVAL = 2
    HALT_MTBFS_S = (5.0, 8.0, 12.0)
    #: Fault-class MTBFs of the all-classes cell (the halt MTBF is the
    #: cell's drawn one).
    ALL_CLASSES_S = {"parity": 8.0, "link_transient": 0.5,
                     "link_stuck": 2.0}
    #: Injector seeds are drawn until the schedule holds exactly one
    #: node halt in (0, WINDOW_NS], landing inside HALT_AT_NS, and
    #: (all-classes cell) exactly one parity fault: every cell then
    #: recovers once, so the batch costs about the same for any seed.
    #: The window outlasts every cell (7-9 simulated seconds) and is
    #: short enough that about one draw in a hundred holds, so drawing
    #: costs about the same, and little, for any seed.
    WINDOW_NS = int(10e9)
    HALT_AT_NS = (int(1.5e9), int(2.5e9))

    def __init__(self, seed: int):
        self.specs = compressed_timescale_specs()
        rng = random.Random(seed)
        probe = TSeriesMachine(MachineConfig(self.DIMENSION,
                                             specs=self.specs),
                               engine=Engine())
        # Every batch checkpoints at each interval in INTERVAL_MIX
        # (the seed orders them), so snapshot work is seed-independent.
        intervals = list(self.INTERVAL_MIX) * self.CELLS_PER_INTERVAL
        rng.shuffle(intervals)
        self.ops = []
        for cell, interval in enumerate(intervals):
            mtbf = rng.choice(self.HALT_MTBFS_S)
            classes = {failures.FAULT_NODE_HALT: mtbf}
            if cell == 0:
                classes.update(self.ALL_CLASSES_S)
            lo, hi = self.HALT_AT_NS
            while True:
                injector_seed = rng.randrange(1 << 31)
                injector = failures.MultiClassFailureInjector(
                    probe, classes, seed=injector_seed)
                # The schedule up to ``hi`` is a prefix of the window's:
                # screening on it first keeps the drawing cheap, and its
                # cost from varying much with the seed.
                halts = _halt_times(injector.schedule(hi))
                if len(halts) != 1 or halts[0] < lo:
                    continue
                schedule = injector.schedule(self.WINDOW_NS)
                parity = [f for f in schedule
                          if f.kind == failures.FAULT_PARITY]
                if (len(_halt_times(schedule)) == 1
                        and (cell != 0 or len(parity) == 1)):
                    break
            self.ops.append({"interval": interval, "mtbf_s": mtbf,
                             "seed": injector_seed,
                             "classes": classes})
        self.clean_digest = None

    def _cell(self, interval, classes=None, seed=0):
        engine = Engine()
        FaultLog(engine)
        machine = TSeriesMachine(
            MachineConfig(self.DIMENSION, specs=self.specs),
            engine=engine)
        workload = RingStencilWorkload(
            ranks=1 << self.DIMENSION, steps=self.STEPS,
            exchange_every=4, compute_pad_ns=self.PAD_NS)
        run = FaultTolerantRun(machine, workload,
                               checkpoint_interval_steps=interval)
        if classes is not None:
            injector = failures.MultiClassFailureInjector(
                machine, classes, seed=seed, halt_hook=run.halt_hook)
            engine.process(injector.run(self.HORIZON_NS),
                           name="injector")
        run.execute()
        stats = recovery_stats(run)
        return {
            "digest": workload.digest(run),
            "stats": stats,
            "reliability": reliability_stats(run.transport),
            "counts": _engine_counts(engine),
        }

    def run(self, op):
        return self._cell(op["interval"], op["classes"], op["seed"])

    def check(self, op, out) -> bool:
        if self.clean_digest is None:
            self.clean_digest = self._cell(max(self.INTERVAL_MIX))["digest"]
        return out["digest"] == self.clean_digest

    @staticmethod
    def identity(out):
        return [out["digest"], out["stats"], out["reliability"]]

    @staticmethod
    def counters(outs) -> dict:
        total = _sum_counts(outs)
        total["runtime.delivered"] = sum(
            o["reliability"]["delivered"] for o in outs)
        total["runtime.retries"] = sum(
            o["reliability"]["retries"] for o in outs)
        total["links.frames_corrupted"] = sum(
            o["reliability"]["frames_corrupted"] for o in outs)
        total["system.recoveries"] = sum(
            o["stats"]["recoveries"] for o in outs)
        total["system.snapshots"] = sum(
            o["stats"]["snapshots_taken"] for o in outs)
        return total


# -- e12_matmul -----------------------------------------------------------


class E12Matmul:
    """C = A·B across the 8-node cube, one product per operation."""

    name = "e12_matmul"
    DIMENSION = 3
    SHAPE = (1024, 48, 64)   # M×K times K×N
    OPS = 1

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        m_rows, k_inner, n_cols = self.SHAPE
        self.ops = [{
            "a": rng.standard_normal((m_rows, k_inner)),
            "b": rng.standard_normal((k_inner, n_cols)),
        } for _ in range(self.OPS)]

    def run(self, op):
        machine = TSeriesMachine(self.DIMENSION, with_system=False)
        c, elapsed_ns, _mflops = distributed_matmul(machine, op["a"],
                                                    op["b"])
        return {"c": np.asarray(c, dtype=np.float64),
                "elapsed_ns": elapsed_ns,
                "counts": _engine_counts(machine.engine)}

    @staticmethod
    def check(op, out) -> bool:
        return bool(np.allclose(out["c"], op["a"] @ op["b"],
                                rtol=1e-9, atol=1e-9))

    @staticmethod
    def identity(out):
        return [out["c"].tobytes(), out["elapsed_ns"]]

    @staticmethod
    def counters(outs) -> dict:
        return _sum_counts(outs)


# -- occam_cp -------------------------------------------------------------

OCCAM_TEMPLATE = """\
SEQ
  x := {x}
  acc := 0
  k := {loops}
  WHILE k > 0
    SEQ
      acc := acc + (({a} * {b}) - {c})
      tmp := ((x + {p}) * (x - {q})) - ((x * x) + {r})
      k := k - 1
  PAR
    SEQ
      got := 0
      i := {msgs}
      WHILE i > 0
        SEQ
          pipe ? v
          got := got + v
          i := i - 1
    SEQ
      j := {msgs}
      WHILE j > 0
        SEQ
          pipe ! j * {m}
          j := j - 1
"""


class OccamCP:
    """Distinct Occam programs, compiled -O2 and run cold on a CPU."""

    name = "occam_cp"
    PROGRAMS = 16
    LOOPS = 1000
    MSGS = 500
    MAX_STEPS = 10_000_000
    #: Constants stay in [16, 255] so each loads with exactly one
    #: prefix byte: the instruction count does not depend on the seed.
    CONST = (16, 255)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ops = []
        seen = set()
        while len(self.ops) < self.PROGRAMS:
            k = {name: rng.randint(*self.CONST)
                 for name in ("x", "a", "b", "c", "p", "q", "r", "m")}
            source = OCCAM_TEMPLATE.format(loops=self.LOOPS,
                                           msgs=self.MSGS, **k)
            if source in seen:
                continue
            seen.add(source)
            x = k["x"]
            self.ops.append({"source": source, "expected": {
                "acc": self.LOOPS * (k["a"] * k["b"] - k["c"]),
                "tmp": (x + k["p"]) * (x - k["q"]) - (x * x + k["r"]),
                "got": k["m"] * self.MSGS * (self.MSGS + 1) // 2,
                "k": 0, "i": 0, "j": 0,
            }})

    def run(self, op):
        compiler = OccamCompiler(opt_level=2)
        code = assemble(compiler.compile(parse(op["source"]))).code
        cpu = CPU(code)
        cpu.run(max_steps=self.MAX_STEPS)
        cycle_ns = max(1, round(1000.0 / PAPER_SPECS.cp_mips))
        return {
            "variables": variables_snapshot(cpu, compiler),
            "halted": cpu.halted,
            "error": cpu.error,
            "state": cpu.snapshot_state(),
            "counts": {
                "cp_instructions": cpu.instructions,
                "cp_cycles": cpu.cycles,
                "cp_block_translations": cpu.block_translations,
                "cp_block_hits": cpu.block_hits,
                "sim_ns": cpu.cycles * cycle_ns,
            },
        }

    @staticmethod
    def check(op, out) -> bool:
        if not out["halted"] or out["error"]:
            return False
        return all(out["variables"].get(name) == value
                   for name, value in op["expected"].items())

    @staticmethod
    def identity(out):
        return [out["variables"], out["state"],
                out["counts"]["cp_instructions"],
                out["counts"]["cp_cycles"]]

    @staticmethod
    def counters(outs) -> dict:
        return _sum_counts(outs)


CLASSES = {cls.name: cls for cls in (E13bRecovery, E12Matmul, OccamCP)}
