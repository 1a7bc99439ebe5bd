package repro.core

import repro.graph.CSRGraph
import repro.memsim.{MemSim, PrefetchHint}
import repro.sampling.{SamplingMethod, StaticTables}

/** Step-interleaving engine (§5, Algorithm 4/5).
  *
  * A ring of `k` slots holds in-flight walkers. Each visit to a slot
  * executes exactly one SDG stage (Table 4) and issues the software
  * prefetch for the next stage's load, then control moves to the next
  * slot — by the time the slot is revisited, the prefetch has (partly)
  * completed and the demand read pays only the residual latency.
  *
  * Stages inside SDG cycles (the ITS binary-search and the REJ/O-REJ
  * retry loops) are processed decoupled, with per-slot state — the search
  * ring; their switch cost is higher than the coupled non-cycle stages.
  * With `amac = true` every stage pays the full AMAC state-maintenance
  * cost (§C.5), modelling Kocberber et al.'s generic chaining.
  *
  * The walks produced are bitwise identical to [[SequentialEngine]]'s:
  * interleaving is a pure scheduling transformation and every walker owns
  * its RNG.
  */
final class RingEngine(
    g: CSRGraph, app: RandomWalkApp, sampling: SamplingMethod.Value,
    tables: StaticTables, sim: MemSim,
    val taskRing: Int = 64, val searchRing: Int = 32,
    val hint: PrefetchHint.Value = PrefetchHint.T0,
    val amac: Boolean = false,
    overhead: Overhead = Overhead(),
) extends EngineBase(g, app, sampling, tables, sim, overhead) {

  // ---- stages --------------------------------------------------------------
  private val S_PF_OFF = 0
  private val S_DEG = 1
  private val S_NAIVE_FIN = 2
  private val S_ALIAS_PICK = 3
  private val S_DYN_FIN = 4 // dynamic ALIAS/REJ/ITS: read selected neighbor
  private val S_ITS_TOTAL = 5
  private val S_ITS_SEARCH = 6 // cycle
  private val S_ITS_FIN = 7
  private val S_REJ_PSTAR = 8
  private val S_REJ_TRY = 9 // cycle
  private val S_OREJ_TRY = 10 // cycle

  @inline private def isCycleStage(s: Int): Boolean =
    s == S_ITS_SEARCH || s == S_REJ_TRY || s == S_OREJ_TRY

  /** Switch cost: coupled non-cycle stages are cheap; decoupled cycle
    * stages carry ring-state maintenance; AMAC pays the full state machine
    * on every stage (Table 13's instruction-count gap).
    */
  @inline private def switchCost(s: Int): Int =
    if (amac) sim.cfg.switchInstr + 6
    else if (isCycleStage(s)) sim.cfg.switchInstr + 4
    else sim.cfg.switchInstr

  private final class Slot {
    // Gather-buffer index, numbered in the order slots first gather; a
    // slot whose walker starts on a zero-degree vertex gathers later.
    var gatherId = -1
    var w: Walker = _
    var stage: Int = S_PF_OFF
    var d = 0
    var base = 0
    var x = 0
    var y = 0.0
    var r = 0.0
    var lo = 0
    var hi = 0
    var total = 0.0
    var mx = 0.0
    var chosen = -1
    var localSearch = false // ITS search over gather buffer vs static cdf
    var h: Array[Double] = _
    var hFirst: Array[Int] = _
    var hSecond: Array[Int] = _
    var buf: Array[Double] = _
  }

  private var tComputeP = 0.0
  private var tInit = 0.0
  private var gatherSlots = 0

  def run(walkers: Array[Walker]): EngineResult = {
    if (walkers.isEmpty)
      return EngineResult(Array.empty, sim.snapshot() - sim.snapshot(), 0L, PhaseBreakdown.zero)
    val t0 = sim.snapshot()
    val k = math.max(1, math.min(taskRing, walkers.length))
    val slots = new Array[Slot](k)
    var i = 0
    while (i < k) { slots(i) = new Slot(); slots(i).w = walkers(i); i += 1 }
    var next = k
    var live = k
    var idx = 0
    while (live > 0) {
      val s = slots(idx)
      if (s.w != null) {
        advance(s)
        if (s.w != null && s.w.done) {
          if (next < walkers.length) {
            s.w = walkers(next); next += 1; s.stage = S_PF_OFF
          } else { s.w = null; live -= 1 }
        }
      }
      idx += 1
      if (idx == k) idx = 0
    }
    val stats = sim.snapshot() - t0
    val steps = walkers.map(_.length.toLong).sum
    val other = math.max(0.0, stats.cycles - tComputeP - tInit)
    EngineResult(walkers.map(_.path), stats, steps,
      PhaseBreakdown(tComputeP, tInit, other, 0.0))
  }

  /** Execute one stage of one slot. */
  private def advance(s: Slot): Unit = {
    sim.compute(switchCost(s.stage))
    val w = s.w
    (s.stage: @annotation.switch) match {
      case 0 /* S_PF_OFF */ =>
        sim.prefetch(g.addrOffset(w.cur), hint)
        sim.prefetch(g.addrOffset(w.cur + 1), hint) // same line 15/16 of the time
        s.stage = S_DEG

      case 1 /* S_DEG */ =>
        val v = w.cur
        sim.read(g.addrOffset(v)); sim.read(g.addrOffset(v + 1)); sim.compute(2)
        s.d = g.degree(v); s.base = g.edgeBegin(v)
        if (s.d == 0) { w.done = true; return }
        if (needsGather) { gatherAndInit(s); return }
        sampling match {
          case SamplingMethod.NAIVE =>
            s.x = w.rng.nextInt(s.d); sim.compute(8)
            sim.prefetch(g.addrNeighbor(s.base + s.x), hint)
            s.stage = S_NAIVE_FIN
          case SamplingMethod.ALIAS =>
            s.x = w.rng.nextInt(s.d); sim.compute(8)
            s.y = w.rng.nextDouble(); sim.compute(8)
            sim.prefetch(g.addrAliasPair(s.base + s.x), hint)
            s.stage = S_ALIAS_PICK
          case SamplingMethod.ITS =>
            sim.prefetch(g.addrCdf(s.base + s.d - 1), hint)
            s.localSearch = false
            s.stage = S_ITS_TOTAL
          case SamplingMethod.REJ =>
            sim.prefetch(g.addrRejMax(w.cur), hint)
            s.stage = S_REJ_PSTAR
          case SamplingMethod.OREJ =>
            s.mx = app.maxWeight(g); sim.compute(2)
            orejDraw(s)
            s.stage = S_OREJ_TRY
        }

      case 2 /* S_NAIVE_FIN */ =>
        val e = s.base + s.x
        sim.read(g.addrNeighbor(e))
        finishStep(w, e)
        s.stage = S_PF_OFF

      case 3 /* S_ALIAS_PICK */ =>
        val t = s.base + s.x
        sim.read(g.addrAliasPair(t)); sim.compute(4)
        val e =
          if (s.y < tables.aliasProb(t) || tables.aliasSecond(t) < 0) tables.aliasFirst(t)
          else tables.aliasSecond(t)
        finishStep(w, e)
        s.stage = S_PF_OFF

      case 4 /* S_DYN_FIN */ =>
        sim.read(g.addrNeighbor(s.chosen))
        finishStep(w, s.chosen)
        s.stage = S_PF_OFF

      case 5 /* S_ITS_TOTAL */ =>
        sim.read(g.addrCdf(s.base + s.d - 1))
        s.total = tables.cdf(s.base + s.d - 1)
        s.r = w.rng.nextDouble() * s.total; sim.compute(10)
        s.lo = 0; s.hi = s.d - 1
        if (s.lo >= s.hi) {
          s.chosen = s.base
          sim.prefetch(g.addrNeighbor(s.chosen), hint)
          s.stage = S_ITS_FIN
        } else {
          sim.prefetch(g.addrCdf(s.base + ((s.lo + s.hi) >>> 1)), hint)
          s.stage = S_ITS_SEARCH
        }

      case 6 /* S_ITS_SEARCH */ =>
        val mid = (s.lo + s.hi) >>> 1
        val cdfVal =
          if (s.localSearch) { sim.read(gatherAddr(s.gatherId, mid)); s.buf(mid) }
          else { sim.read(g.addrCdf(s.base + mid)); tables.cdf(s.base + mid) }
        sim.compute(4); sim.mispredict(0.5)
        if (s.r < cdfVal) s.hi = mid else s.lo = mid + 1
        if (s.lo >= s.hi) {
          s.chosen = s.base + s.lo
          sim.prefetch(g.addrNeighbor(s.chosen), hint)
          s.stage = if (s.localSearch) S_DYN_FIN else S_ITS_FIN
        } else {
          val m2 = (s.lo + s.hi) >>> 1
          if (s.localSearch) sim.prefetch(gatherAddr(s.gatherId, m2), hint)
          else sim.prefetch(g.addrCdf(s.base + m2), hint)
        }

      case 7 /* S_ITS_FIN */ =>
        sim.read(g.addrNeighbor(s.chosen))
        finishStep(w, s.chosen)
        s.stage = S_PF_OFF

      case 8 /* S_REJ_PSTAR */ =>
        sim.read(g.addrRejMax(w.cur))
        s.mx = tables.rejMax(w.cur).toDouble
        rejDraw(s)
        s.stage = S_REJ_TRY

      case 9 /* S_REJ_TRY */ =>
        val p =
          if (s.localSearch) { // dynamic REJ: probabilities live in the gather buffer
            sim.read(gatherAddr(s.gatherId, s.x)); sim.compute(3)
            s.buf(s.x)
          } else {
            sim.read(g.addrWeight(s.base + s.x)); sim.compute(3)
            if (uniform) 1.0 else g.weight(s.base + s.x).toDouble
          }
        if (s.y < p) {
          s.chosen = s.base + s.x
          sim.prefetch(g.addrNeighbor(s.chosen), hint)
          s.stage = S_DYN_FIN
        } else {
          sim.mispredict(0.7)
          if (s.localSearch) rejDrawLocal(s) else rejDraw(s)
        }

      case 10 /* S_OREJ_TRY */ =>
        val e = s.base + s.x
        sim.read(g.addrNeighbor(e))
        val c0 = sim.cycles
        val p = app.weight(ctx, g, w, e)
        tComputeP += sim.cycles - c0
        sim.compute(2)
        if (s.y < p) {
          finishStep(w, e)
          s.stage = S_PF_OFF
        } else { sim.mispredict(0.7); orejDraw(s) }
    }
  }

  @inline private def rejDraw(s: Slot): Unit = {
    s.x = s.w.rng.nextInt(s.d); sim.compute(8)
    s.y = s.w.rng.nextDouble() * s.mx; sim.compute(8)
    sim.prefetch(g.addrWeight(s.base + s.x), hint)
  }

  @inline private def orejDraw(s: Slot): Unit = {
    s.x = s.w.rng.nextInt(s.d); sim.compute(8)
    s.y = s.w.rng.nextDouble() * s.mx; sim.compute(8)
    sim.prefetch(g.addrNeighbor(s.base + s.x), hint)
    sim.prefetch(g.addrWeight(s.base + s.x), hint)
  }

  /** Dynamic RW: gather + init run synchronously inside the slot visit
    * (Alg. 4 lines 5-7); only Move is interleaved.
    */
  private def gatherAndInit(s: Slot): Unit = {
    val w = s.w
    if (s.buf == null) {
      s.buf = new Array[Double](g.maxDegree + 1)
      s.gatherId = gatherSlots; gatherSlots += 1
    }
    val c0 = sim.cycles
    val sum = gather(s.gatherId, w, s.base, s.d, s.buf)
    tComputeP += sim.cycles - c0
    if (sum <= 0.0) { w.done = true; return }
    sampling match {
      case SamplingMethod.ITS =>
        val i0 = sim.cycles
        s.total = initCdfLocal(s.d, s.buf)
        tInit += sim.cycles - i0
        s.r = w.rng.nextDouble() * s.total; sim.compute(10)
        s.lo = 0; s.hi = s.d - 1
        s.localSearch = true
        if (s.lo >= s.hi) {
          s.chosen = s.base
          sim.prefetch(g.addrNeighbor(s.chosen), hint)
          s.stage = S_DYN_FIN
        } else {
          sim.prefetch(gatherAddr(s.gatherId, (s.lo + s.hi) >>> 1), hint)
          s.stage = S_ITS_SEARCH
        }
      case SamplingMethod.ALIAS =>
        val i0 = sim.cycles
        val probs = java.util.Arrays.copyOf(s.buf, s.d)
        val t = StaticTables.buildAlias(probs, sum, sim)
        s.h = t._1; s.hFirst = t._2; s.hSecond = t._3
        tInit += sim.cycles - i0
        s.x = w.rng.nextInt(s.d); sim.compute(8)
        s.y = w.rng.nextDouble(); sim.compute(8)
        sim.read(gatherAddr(s.gatherId, s.x)); sim.compute(4)
        val local = if (s.y < s.h(s.x) || s.hSecond(s.x) < 0) s.hFirst(s.x) else s.hSecond(s.x)
        s.chosen = s.base + local
        sim.prefetch(g.addrNeighbor(s.chosen), hint)
        s.stage = S_DYN_FIN
      case SamplingMethod.REJ =>
        val i0 = sim.cycles
        s.mx = initMaxLocal(s.d, s.buf)
        tInit += sim.cycles - i0
        s.localSearch = true
        rejDrawLocal(s)
        s.stage = S_REJ_TRY
      case other => sys.error(s"gather not defined for $other")
    }
  }

  @inline private def rejDrawLocal(s: Slot): Unit = {
    s.x = s.w.rng.nextInt(s.d); sim.compute(8)
    s.y = s.w.rng.nextDouble() * s.mx; sim.compute(8)
    sim.prefetch(gatherAddr(s.gatherId, s.x), hint)
  }
}
