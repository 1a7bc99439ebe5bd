package repro.core

import repro.graph.CSRGraph
import repro.memsim.{MemSim, PrefetchHint, SimStats}
import repro.sampling.{SamplingMethod, StaticTables}

/** Per-step framework overhead used to emulate GraphWalker / KnightKing
  * execution paradigms (§C.4): `instr` straight-line instructions plus
  * `reads` random touches into a framework-managed region (walk pools,
  * message queues) that is far larger than the LLC.
  */
final case class Overhead(instr: Int = 0, reads: Int = 0) {
  def isZero: Boolean = instr == 0 && reads == 0
}

/** Cycle split of the per-step work (Table 2 columns). */
final case class PhaseBreakdown(computeP: Double, init: Double, gen: Double, other: Double) {
  def total: Double = computeP + init + gen + other
}

/** Result of running a set of walkers on one simulated worker. */
final case class EngineResult(
    walks: Array[Array[Int]],
    stats: SimStats,
    steps: Long,
    phases: PhaseBreakdown,
)

/** The GMU engine without step interleaving (Algorithm 2): used for the
  * BL / HG / GW / KK systems and all wo/si profiling rows. It runs the
  * [[SdgEngine]] stage machine one walker at a time.
  */
final class SequentialEngine(
    g: CSRGraph, app: RandomWalkApp, sampling: SamplingMethod.Value,
    tables: StaticTables, sim: MemSim, overhead: Overhead = Overhead(),
) extends SdgEngine(g, app, sampling, tables, sim, EngineKind.Sequential, 1, PrefetchHint.T0, overhead)
