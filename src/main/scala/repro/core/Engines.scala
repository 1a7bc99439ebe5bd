package repro.core

import repro.graph.CSRGraph
import repro.memsim.{MemSim, SimStats}
import repro.sampling.{SamplingMethod, StaticTables, WalkerType}

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
  def +(o: PhaseBreakdown): PhaseBreakdown =
    PhaseBreakdown(computeP + o.computeP, init + o.init, gen + o.gen, other + o.other)
}

object PhaseBreakdown { val zero: PhaseBreakdown = PhaseBreakdown(0, 0, 0, 0) }

/** Result of running a set of walkers on one simulated worker. */
final case class EngineResult(
    walks: Array[Array[Int]],
    stats: SimStats,
    steps: Long,
    phases: PhaseBreakdown,
)

/** Shared engine plumbing: gather, local (dynamic) sampler state, output
  * charging, and the framework-overhead hooks.
  */
private[core] abstract class EngineBase(
    val g: CSRGraph,
    val app: RandomWalkApp,
    val sampling: SamplingMethod.Value,
    val tables: StaticTables,
    val sim: MemSim,
    val overhead: Overhead,
) {
  protected val ctx = new SimCtx(sim, g)
  protected val dynamic: Boolean = app.walkerType == WalkerType.Dynamic
  protected val uniform: Boolean = app.walkerType == WalkerType.Unbiased
  // O-REJ never gathers; NAIVE is only legal for unbiased walks.
  protected val needsGather: Boolean =
    dynamic && sampling != SamplingMethod.OREJ && sampling != SamplingMethod.NAIVE

  require(!(sampling == SamplingMethod.NAIVE && !uniform),
    "NAIVE sampling only supports unbiased random walk (§2.3)")
  require(needsGather || dynamic || sampling == SamplingMethod.NAIVE ||
    sampling == SamplingMethod.OREJ || tables != null,
    s"static/unbiased $sampling requires preprocessed tables")

  protected val gatherStride: Long = {
    val bytes = 8L * (g.maxDegree + 1)
    ((bytes + 63) / 64) * 64
  }
  @inline protected def gatherAddr(slot: Int, i: Int): Long =
    CSRGraph.GatherBase + slot.toLong * gatherStride + 8L * i

  private val FrameworkBase = 12L << 40
  private val FrameworkBytes = 64L * 1024 * 1024
  private var overheadCounter = 0L

  /** Charge the per-step framework overhead (GW/KK emulation). */
  protected def chargeOverhead(): Unit = {
    if (overhead.isZero) return
    sim.compute(overhead.instr)
    var i = 0
    while (i < overhead.reads) {
      overheadCounter += 1
      val addr = FrameworkBase + ((overheadCounter * 0x9E3779B97F4A7C15L) & (FrameworkBytes - 1)) / 64 * 64
      sim.read(addr)
      i += 1
    }
  }

  private val outStride = 4L * 4096
  @inline protected def outAddr(w: Walker): Long =
    CSRGraph.OutputBase + w.id.toLong * outStride + 4L * w.length

  /** Move walker `w` along edge `e` to `v`, write output, run Update. */
  protected def finishStep(w: Walker, e: Int): Unit = {
    val v = g.neighbor(e)
    w.move(v)
    sim.streamWrite(outAddr(w))
    sim.compute(4)
    if (app.update(ctx, g, w, e)) w.done = true
    chargeOverhead()
  }

  /** Gather (Alg. 2 lines 9-12): stream E_v applying Weight, filling the
    * slot-local buffer; returns the total mass. Charged as streaming —
    * this is why dynamic RW shows low memory-bound in Table 1.
    */
  protected def gather(slot: Int, w: Walker, base: Int, d: Int, buf: Array[Double]): Double = {
    ctx.streaming = true
    var sum = 0.0
    var i = 0
    while (i < d) {
      val e = base + i
      sim.streamRead(g.addrNeighbor(e))
      val p = app.weight(ctx, g, w, e)
      buf(i) = p
      sim.streamWrite(gatherAddr(slot, i))
      sim.compute(2)
      sum += p
      i += 1
    }
    ctx.streaming = false
    sum
  }

  /** Dynamic ITS init: in-place prefix sum over the gather buffer. */
  protected def initCdfLocal(d: Int, buf: Array[Double]): Double = {
    var acc = 0.0
    var i = 0
    while (i < d) { acc += buf(i); buf(i) = acc; sim.compute(2); i += 1 }
    acc
  }

  /** Dynamic REJ init: max scan over the gather buffer. */
  protected def initMaxLocal(d: Int, buf: Array[Double]): Double = {
    var mx = 0.0
    var i = 0
    while (i < d) { if (buf(i) > mx) mx = buf(i); sim.compute(2); i += 1 }
    mx
  }
}

/** The GMU engine without step interleaving (Algorithm 2): used for the
  * BL / HG / GW / KK systems and all wo/si profiling rows.
  */
final class SequentialEngine(
    g: CSRGraph, app: RandomWalkApp, sampling: SamplingMethod.Value,
    tables: StaticTables, sim: MemSim, overhead: Overhead = Overhead(),
) extends EngineBase(g, app, sampling, tables, sim, overhead) {

  private var tComputeP = 0.0
  private var tInit = 0.0
  private var tGen = 0.0
  private val buf = new Array[Double](g.maxDegree + 1)

  def run(walkers: Array[Walker]): EngineResult = {
    val t0 = sim.snapshot()
    var i = 0
    while (i < walkers.length) {
      val w = walkers(i)
      while (!w.done) step(w)
      i += 1
    }
    val stats = sim.snapshot() - t0
    val steps = walkers.map(_.length.toLong).sum
    val other = math.max(0.0, stats.cycles - tComputeP - tInit - tGen)
    EngineResult(walkers.map(_.path), stats, steps,
      PhaseBreakdown(tComputeP, tInit, tGen, other))
  }

  private def step(w: Walker): Unit = {
    val v = w.cur
    sim.read(g.addrOffset(v)); sim.read(g.addrOffset(v + 1)); sim.compute(2)
    val d = g.degree(v)
    if (d == 0) { w.done = true; return }
    val base = g.edgeBegin(v)

    if (needsGather) {
      val c0 = sim.cycles
      val sum = gather(0, w, base, d, buf)
      tComputeP += sim.cycles - c0
      if (sum <= 0.0) { w.done = true; return }
      sampling match {
        case SamplingMethod.ITS =>
          val i0 = sim.cycles
          val total = initCdfLocal(d, buf)
          tInit += sim.cycles - i0
          val g0 = sim.cycles
          val e = genItsLocal(w, base, d, total)
          tGen += sim.cycles - g0
          finishStep(w, e)
        case SamplingMethod.ALIAS =>
          val i0 = sim.cycles
          val probs = java.util.Arrays.copyOf(buf, d)
          val (h, first, second) = StaticTables.buildAlias(probs, sum, sim)
          tInit += sim.cycles - i0
          val g0 = sim.cycles
          val x = w.rng.nextInt(d); sim.compute(8)
          val y = w.rng.nextDouble(); sim.compute(8)
          sim.read(gatherAddr(0, x)); sim.compute(4)
          val local = if (y < h(x) || second(x) < 0) first(x) else second(x)
          val e = base + local
          sim.read(g.addrNeighbor(e))
          tGen += sim.cycles - g0
          finishStep(w, e)
        case SamplingMethod.REJ =>
          val i0 = sim.cycles
          val mx = initMaxLocal(d, buf)
          tInit += sim.cycles - i0
          val g0 = sim.cycles
          var e = -1
          while (e < 0) {
            val x = w.rng.nextInt(d); sim.compute(8)
            val y = w.rng.nextDouble() * mx; sim.compute(8)
            sim.read(gatherAddr(0, x)); sim.compute(3)
            if (y < buf(x)) e = base + x else sim.mispredict(0.7)
          }
          sim.read(g.addrNeighbor(e))
          tGen += sim.cycles - g0
          finishStep(w, e)
        case other => sys.error(s"gather not defined for $other")
      }
      return
    }

    sampling match {
      case SamplingMethod.NAIVE =>
        val g0 = sim.cycles
        val x = w.rng.nextInt(d); sim.compute(8)
        val e = base + x
        sim.read(g.addrNeighbor(e))
        tGen += sim.cycles - g0
        finishStep(w, e)

      case SamplingMethod.ALIAS =>
        val g0 = sim.cycles
        val x = w.rng.nextInt(d); sim.compute(8)
        val y = w.rng.nextDouble(); sim.compute(8)
        sim.read(g.addrAliasPair(base + x)); sim.compute(4)
        val e =
          if (y < tables.aliasProb(base + x) || tables.aliasSecond(base + x) < 0)
            tables.aliasFirst(base + x)
          else tables.aliasSecond(base + x)
        tGen += sim.cycles - g0
        finishStep(w, e)

      case SamplingMethod.ITS =>
        val g0 = sim.cycles
        sim.read(g.addrCdf(base + d - 1))
        val total = tables.cdf(base + d - 1)
        val r = w.rng.nextDouble() * total; sim.compute(10)
        var lo = 0; var hi = d - 1
        while (lo < hi) {
          val mid = (lo + hi) >>> 1
          sim.read(g.addrCdf(base + mid)); sim.compute(4); sim.mispredict(0.5)
          if (r < tables.cdf(base + mid)) hi = mid else lo = mid + 1
        }
        val e = base + lo
        sim.read(g.addrNeighbor(e))
        tGen += sim.cycles - g0
        finishStep(w, e)

      case SamplingMethod.REJ =>
        val g0 = sim.cycles
        sim.read(g.addrRejMax(v))
        val mx = tables.rejMax(v).toDouble
        var e = -1
        while (e < 0) {
          val x = w.rng.nextInt(d); sim.compute(8)
          val y = w.rng.nextDouble() * mx; sim.compute(8)
          sim.read(g.addrWeight(base + x)); sim.compute(3)
          val p = if (uniform) 1.0 else g.weight(base + x).toDouble
          if (y < p) e = base + x else sim.mispredict(0.7)
        }
        sim.read(g.addrNeighbor(e))
        tGen += sim.cycles - g0
        finishStep(w, e)

      case SamplingMethod.OREJ =>
        val mw = app.maxWeight(g); sim.compute(2)
        var e = -1
        while (e < 0) {
          val g0 = sim.cycles
          val x = w.rng.nextInt(d); sim.compute(8)
          val y = w.rng.nextDouble() * mw; sim.compute(8)
          sim.read(g.addrNeighbor(base + x))
          tGen += sim.cycles - g0
          val c0 = sim.cycles
          val p = app.weight(ctx, g, w, base + x)
          tComputeP += sim.cycles - c0
          sim.compute(2)
          if (y < p) e = base + x else sim.mispredict(0.7)
        }
        finishStep(w, e)
    }
  }

  private def genItsLocal(w: Walker, base: Int, d: Int, total: Double): Int = {
    val r = w.rng.nextDouble() * total; sim.compute(10)
    var lo = 0; var hi = d - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      sim.read(gatherAddr(0, mid)); sim.compute(4); sim.mispredict(0.5)
      if (r < buf(mid)) hi = mid else lo = mid + 1
    }
    val e = base + lo
    sim.read(g.addrNeighbor(e))
    e
  }
}
