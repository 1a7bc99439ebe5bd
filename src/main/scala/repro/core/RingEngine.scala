package repro.core

import repro.graph.CSRGraph
import repro.memsim.{MemSim, PrefetchHint, SimLayout}
import repro.sampling.{InitPhase, SamplingMethod, StaticTables, WalkerType}

/** The Gather–Move–Update engine as one SDG stage machine (Table 4), run
  * under the schedule `kind`:
  *
  *  - Sequential (Algorithm 2, wo/si): one slot drives each walker to
  *    completion. Every step begins at the degree stage; no prefetch is
  *    issued and no switch cost is charged.
  *  - Interleaved (Algorithm 4/5, w/si): a ring of `taskRing` slots holds
  *    in-flight walkers. Each visit to a slot executes exactly one stage and
  *    issues the software prefetch for the next stage's load, then control
  *    moves to the next slot — by the time the slot is revisited, the
  *    prefetch has (partly) completed and the demand read pays only the
  *    residual latency. Stages inside SDG cycles (the ITS binary search and
  *    the REJ/O-REJ retry loops) keep per-slot state, so their switch cost
  *    is higher than that of the coupled non-cycle stages.
  *  - Amac: the same ring, but every stage pays the full AMAC
  *    state-maintenance cost (§C.5), modelling Kocberber et al.'s generic
  *    chaining.
  *
  * The schedule changes costs, never walks: every walker owns its RNG and
  * no stage reorders a walker's draws, so all three produce bitwise
  * identical walks.
  *
  * Phases follow one rule under every schedule: the Weight UDF is
  * `computeP`, dynamic init is `init`, the rest of Move is `gen`, and the
  * switch charge, the degree read, the step's output and Update, and
  * O-REJ's max weight and accept test are `other`.
  */
private[core] class SdgEngine(
    g: CSRGraph, app: RandomWalkApp, sampling: SamplingMethod.Value,
    tables: StaticTables, sim: MemSim, kind: EngineKind.Value,
    taskRing: Int, hint: PrefetchHint.Value, overhead: Overhead,
) {
  import SdgEngine._

  StaticTables.requireFits(tables, g, app.walkerType, sampling)
  require(taskRing >= 1, s"taskRing must be at least 1, got $taskRing")

  private val ctx = new SimCtx(sim)
  private val uniform: Boolean = app.walkerType == WalkerType.Unbiased
  // A sampler whose init runs per step reads the slot's gather buffer, not tables.
  private val needsGather: Boolean = InitPhase.of(app.walkerType, sampling) == InitPhase.PerStep
  // O-REJ's bound, read once: an app without MaxWeight fails here, not mid-walk.
  private val orejMax: Double = if (sampling == SamplingMethod.OREJ) app.maxWeight(g) else 0.0

  private val interleaved = kind != EngineKind.Sequential
  private val chainAll = kind == EngineKind.Amac
  private val firstStage = if (interleaved) S_PF_OFF else S_DEG

  /** Switch cost: coupled non-cycle stages are cheap; decoupled cycle
    * stages carry ring-state maintenance; AMAC pays the full state machine
    * on every stage (Table 13's instruction-count gap).
    */
  @inline private def switchCost(s: Int): Int =
    if (chainAll) sim.cfg.switchInstr + 6
    else if (s == S_ITS_SEARCH || s == S_REJ_TRY || s == S_OREJ_TRY) sim.cfg.switchInstr + 4
    else sim.cfg.switchInstr

  @inline private def prefetch(addr: Long): Unit = if (interleaved) sim.prefetch(addr, hint)

  private final class Slot {
    // Gather-buffer index, numbered in the order slots first gather; a
    // slot whose walker starts on a zero-degree vertex gathers later.
    var gatherId = -1
    var w: Walker = _
    var stage: Int = firstStage
    var d = 0
    var base = 0
    var x = 0
    var y = 0.0
    var r = 0.0
    var lo = 0
    var hi = 0
    var mx = 0.0
    var chosen = -1
    var buf: Array[Double] = _
  }

  private var tComputeP = 0.0
  private var tInit = 0.0
  private var tGen = 0.0
  // Cycle count at which the open gen window began; negative when closed.
  // A sequential step keeps one window open across its Move stages; the
  // ring closes it at the end of every visit.
  private var genFrom = -1.0
  private var gatherSlots = 0

  @inline private def openGen(): Unit = genFrom = sim.cycles
  @inline private def closeGen(): Unit =
    if (genFrom >= 0) { tGen += sim.cycles - genFrom; genFrom = -1.0 }

  def run(walkers: Array[Walker]): EngineResult = {
    val t0 = sim.snapshot()
    if (interleaved) runRing(walkers)
    else {
      val s = new Slot()
      var i = 0
      while (i < walkers.length) {
        val w = walkers(i)
        s.w = w; s.stage = S_DEG
        while (!w.done) stage(s)
        i += 1
      }
    }
    val stats = sim.snapshot() - t0
    val steps = walkers.map(_.length.toLong).sum
    val other = math.max(0.0, stats.cycles - tComputeP - tInit - tGen)
    EngineResult(walkers.map(_.path), stats, steps,
      PhaseBreakdown(tComputeP, tInit, tGen, other))
  }

  private def runRing(walkers: Array[Walker]): Unit = {
    val k = math.min(taskRing, walkers.length)
    val slots = new Array[Slot](k)
    var i = 0
    while (i < k) { slots(i) = new Slot(); slots(i).w = walkers(i); i += 1 }
    var next = k
    var live = k
    var idx = 0
    while (live > 0) {
      val s = slots(idx)
      if (s.w != null) {
        sim.compute(switchCost(s.stage))
        if (s.stage > S_DEG) openGen()
        stage(s)
        closeGen()
        if (s.w.done) {
          if (next < walkers.length) {
            s.w = walkers(next); next += 1; s.stage = S_PF_OFF
          } else { s.w = null; live -= 1 }
        }
      }
      idx += 1
      if (idx == k) idx = 0
    }
  }

  /** Execute one stage of one slot. The sequential schedule goes on with
    * the walker's next stage in the same call, which spares a call per
    * stage; a stage that returns early leaves the rest to the caller.
    */
  private def stage(s: Slot): Unit = {
    val w = s.w
    do (s.stage: @annotation.switch) match {
      case S_PF_OFF =>
        sim.prefetch(SimLayout.offset(w.cur), hint)
        sim.prefetch(SimLayout.offset(w.cur + 1), hint) // same line 15/16 of the time
        s.stage = S_DEG

      case S_DEG =>
        val v = w.cur
        sim.read(SimLayout.offset(v)); sim.read(SimLayout.offset(v + 1)); sim.compute(2)
        s.d = g.degree(v); s.base = g.edgeBegin(v)
        if (s.d == 0) { w.done = true; return }
        if (needsGather) { gatherAndInit(s); return }
        if (sampling == SamplingMethod.OREJ) { s.mx = orejMax; sim.compute(2) }
        openGen()
        sampling match {
          case SamplingMethod.NAIVE =>
            s.x = w.rng.nextInt(s.d); sim.compute(8)
            choose(s, s.base + s.x)
          case SamplingMethod.ALIAS =>
            s.x = w.rng.nextInt(s.d); sim.compute(8)
            s.y = w.rng.nextDouble(); sim.compute(8)
            prefetch(SimLayout.aliasPair(s.base + s.x))
            s.stage = S_ALIAS_PICK
          case SamplingMethod.ITS =>
            prefetch(SimLayout.cdf(s.base + s.d - 1))
            s.stage = S_ITS_TOTAL
          case SamplingMethod.REJ =>
            prefetch(SimLayout.rejMax(v))
            s.stage = S_REJ_PSTAR
          case SamplingMethod.OREJ =>
            orejDraw(s)
            s.stage = S_OREJ_TRY
        }

      case S_FIN =>
        sim.read(SimLayout.neighbor(s.chosen))
        finishStep(s, s.chosen)

      case S_ALIAS_PICK =>
        val t = s.base + s.x
        sim.read(SimLayout.aliasPair(t)); sim.compute(4)
        val e = if (s.y < tables.aliasProb(t) || tables.aliasSecond(t) < 0) t else tables.aliasSecond(t)
        finishStep(s, e)

      case S_ITS_TOTAL =>
        sim.read(SimLayout.cdf(s.base + s.d - 1))
        startSearch(s, tables.cdf(s.base + s.d - 1))

      case S_ITS_SEARCH =>
        val mid = (s.lo + s.hi) >>> 1
        sim.read(searchAddr(s, mid))
        val cdfVal = if (needsGather) s.buf(mid) else tables.cdf(s.base + mid)
        sim.compute(4); sim.mispredict(0.5)
        if (s.r < cdfVal) s.hi = mid else s.lo = mid + 1
        searchNext(s)

      case S_REJ_PSTAR =>
        sim.read(SimLayout.rejMax(w.cur))
        s.mx = tables.rejMax(w.cur).toDouble
        rejDraw(s)
        s.stage = S_REJ_TRY

      case S_REJ_TRY =>
        sim.read(rejAddr(s)); sim.compute(3)
        val p = if (needsGather) s.buf(s.x) else if (uniform) 1.0 else g.weight(s.base + s.x).toDouble
        if (s.y < p) choose(s, s.base + s.x)
        else { sim.mispredict(0.7); rejDraw(s) }

      case S_OREJ_TRY =>
        val e = s.base + s.x
        sim.read(SimLayout.neighbor(e))
        closeGen()
        val c0 = sim.cycles
        val p = app.weight(ctx, g, w, e)
        tComputeP += sim.cycles - c0
        sim.compute(2)
        if (s.y < p) finishStep(s, e)
        else { sim.mispredict(0.7); openGen(); orejDraw(s) }
    } while (!interleaved && !w.done)
  }

  /** Edge `e` is sampled: prefetch its neighbor id for the final stage. */
  private def choose(s: Slot, e: Int): Unit = {
    s.chosen = e
    prefetch(SimLayout.neighbor(e))
    s.stage = S_FIN
  }

  @inline private def searchAddr(s: Slot, i: Int): Long =
    if (needsGather) gatherAddr(s.gatherId, i) else SimLayout.cdf(s.base + i)

  /** Draw the ITS target in `[0, total)` and search `[0, d-1]` for it. */
  private def startSearch(s: Slot, total: Double): Unit = {
    s.r = s.w.rng.nextDouble() * total; sim.compute(10)
    s.lo = 0; s.hi = s.d - 1
    searchNext(s)
  }

  /** One ITS binary-search step over `[lo, hi]` is done: finish or probe on. */
  private def searchNext(s: Slot): Unit =
    if (s.lo >= s.hi) choose(s, s.base + s.lo)
    else {
      prefetch(searchAddr(s, (s.lo + s.hi) >>> 1))
      s.stage = S_ITS_SEARCH
    }

  @inline private def rejDraw(s: Slot): Unit = {
    s.x = s.w.rng.nextInt(s.d); sim.compute(8)
    s.y = s.w.rng.nextDouble() * s.mx; sim.compute(8)
    prefetch(rejAddr(s))
  }

  @inline private def rejAddr(s: Slot): Long =
    if (needsGather) gatherAddr(s.gatherId, s.x) else SimLayout.weight(s.base + s.x)

  @inline private def orejDraw(s: Slot): Unit = {
    s.x = s.w.rng.nextInt(s.d); sim.compute(8)
    s.y = s.w.rng.nextDouble() * s.mx; sim.compute(8)
    prefetch(SimLayout.neighbor(s.base + s.x))
    prefetch(SimLayout.weight(s.base + s.x))
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
    val i0 = sim.cycles
    sampling match {
      case SamplingMethod.ITS =>
        val total = initCdfLocal(s.d, s.buf)
        tInit += sim.cycles - i0
        openGen()
        startSearch(s, total)
      case SamplingMethod.ALIAS =>
        val (h, second) = StaticTables.buildAlias(java.util.Arrays.copyOf(s.buf, s.d), sum, sim)
        tInit += sim.cycles - i0
        openGen()
        s.x = w.rng.nextInt(s.d); sim.compute(8)
        s.y = w.rng.nextDouble(); sim.compute(8)
        sim.read(gatherAddr(s.gatherId, s.x)); sim.compute(4)
        choose(s, s.base + (if (s.y < h(s.x) || second(s.x) < 0) s.x else second(s.x)))
      case SamplingMethod.REJ =>
        s.mx = initMaxLocal(s.d, s.buf)
        tInit += sim.cycles - i0
        openGen()
        rejDraw(s)
        s.stage = S_REJ_TRY
    }
  }

  private val gatherStride = SimLayout.gatherStride(g.maxDegree)
  @inline private def gatherAddr(slot: Int, i: Int): Long = SimLayout.gather(gatherStride, slot, i)

  /** Gather (Alg. 2 lines 9-12): stream E_v applying Weight, filling the
    * slot-local buffer; returns the total mass. Charged as streaming —
    * this is why dynamic RW shows low memory-bound in Table 1.
    */
  private def gather(slot: Int, w: Walker, base: Int, d: Int, buf: Array[Double]): Double = {
    ctx.streaming = true
    var sum = 0.0
    var i = 0
    while (i < d) {
      val e = base + i
      sim.streamRead(SimLayout.neighbor(e))
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
  private def initCdfLocal(d: Int, buf: Array[Double]): Double = {
    var acc = 0.0
    var i = 0
    while (i < d) { acc += buf(i); buf(i) = acc; sim.compute(2); i += 1 }
    acc
  }

  /** Dynamic REJ init: max scan over the gather buffer. */
  private def initMaxLocal(d: Int, buf: Array[Double]): Double = {
    var mx = 0.0
    var i = 0
    while (i < d) { if (buf(i) > mx) mx = buf(i); sim.compute(2); i += 1 }
    mx
  }

  /** Move the slot's walker along edge `e`, write output, run Update; the
    * slot's next step starts over.
    */
  private def finishStep(s: Slot, e: Int): Unit = {
    closeGen()
    val w = s.w
    w.move(g.neighbor(e))
    sim.streamWrite(SimLayout.output(w.id, w.length))
    sim.compute(4)
    if (app.update(ctx, g, w, e)) w.done = true
    chargeOverhead()
    s.stage = firstStage
  }

  private var overheadCounter = 0L

  /** Charge the per-step framework overhead (GW/KK emulation). */
  private def chargeOverhead(): Unit = {
    if (overhead.isZero) return
    sim.compute(overhead.instr)
    var i = 0
    while (i < overhead.reads) {
      overheadCounter += 1
      sim.read(SimLayout.framework(overheadCounter))
      i += 1
    }
  }
}

private object SdgEngine {
  final val S_PF_OFF = 0
  final val S_DEG = 1
  final val S_FIN = 2 // read the sampled edge's neighbor id
  final val S_ALIAS_PICK = 3
  final val S_ITS_TOTAL = 4
  final val S_ITS_SEARCH = 5 // cycle
  final val S_REJ_PSTAR = 6
  final val S_REJ_TRY = 7 // cycle
  final val S_OREJ_TRY = 8 // cycle
}

/** Step interleaving (`amac = false`) or AMAC (`amac = true`) over a ring
  * of `taskRing` slots. `searchRing` is accepted but not read: cycle stages
  * share the task ring (DESIGN.md §4).
  */
final class RingEngine(
    g: CSRGraph, app: RandomWalkApp, sampling: SamplingMethod.Value,
    tables: StaticTables, sim: MemSim,
    val taskRing: Int = 64, val searchRing: Int = 32,
    val hint: PrefetchHint.Value = PrefetchHint.T0,
    val amac: Boolean = false,
    overhead: Overhead = Overhead(),
) extends SdgEngine(g, app, sampling, tables, sim,
      if (amac) EngineKind.Amac else EngineKind.Interleaved, taskRing, hint, overhead)
