package repro.memsim

/** Configuration of the simulated memory hierarchy and pipeline cost model.
  *
  * Capacities are scaled down from the paper's Xeon W-2155 (32 KB / 1 MB /
  * 13.75 MB) to 8 KB / 32 KB / 512 KB for every dataset, while the analogues
  * are scaled 1/100 to 1/800 (`GraphGen.datasets`): each analogue is less
  * LLC-bound than its original, by about scale / 27 (EXPERIMENTS.md).
  *
  * Latencies are in core cycles and close to Skylake: L1 ~4, L2 ~14,
  * L3 ~50, DRAM ~220. Sequential (hardware-prefetched) streams pay an
  * amortised per-line cost instead of the full DRAM latency.
  */
final case class MemConfig(
    l1Bytes: Int = 8 * 1024,
    l1Ways: Int = 8,
    l2Bytes: Int = 32 * 1024,
    l2Ways: Int = 8,
    l3Bytes: Int = 512 * 1024,
    l3Ways: Int = 8,
    lineBytes: Int = 64,
    latL2: Int = 12,
    latL3: Int = 44,
    latDram: Int = 200,
    streamStall: Int = 24,
    ipc: Double = 2.0,
    pipelineWidth: Int = 4,
    // Outstanding-fill window: L1 has 10 line-fill buffers, but the L2
    // superqueue sustains more in-flight misses; 20 models the per-core
    // end-to-end MLP that step interleaving exploits.
    mshrs: Int = 20,
    mispredictPenalty: Int = 15,
    switchInstr: Int = 4,
    freqGhz: Double = 2.5,
)

/** Software prefetch target, mirroring `_mm_prefetch` hints (Table 10). */
object PrefetchHint extends Enumeration {
  val T0, T1, T2, NTA = Value
}

/** Cost-accounting memory simulator for one worker thread.
  *
  * Engines drive it with the logical operations their C++ counterparts
  * would execute: `compute(n)` for n retired instructions, `read` for a
  * dependent random access, `streamRead`/`streamWrite` for sequential
  * scans, `prefetch` + later `read` for software-prefetched accesses,
  * and `mispredict` for expected branch-misprediction penalties.
  *
  * Prefetches complete `latency` cycles after issue, bounded by the MSHR
  * window: at most `mshrs` fills are in flight, extra issues queue behind
  * the earliest completion. A demand `read` of a prefetched line pays only
  * the residual latency — this is exactly the mechanism step interleaving
  * exploits.
  *
  * Every access probes L1 → L2 → L3 once (`locate`) and installs into the
  * missing levels at the victims those probes chose, so no set is scanned
  * twice. The four demand kinds share one path (`demand`) and differ only
  * in what a miss stalls; every fetched line, demand or prefetch, is
  * counted and filled by `fetch`.
  */
final class MemSim(val cfg: MemConfig = MemConfig()) {
  require(cfg.mshrs >= 1, s"mshrs ${cfg.mshrs} must be at least 1")
  require(cfg.ipc > 0, s"ipc ${cfg.ipc} must be positive")
  require(cfg.freqGhz > 0, s"freqGhz ${cfg.freqGhz} must be positive")
  require(cfg.pipelineWidth >= 1, s"pipelineWidth ${cfg.pipelineWidth} must be at least 1")
  // A miss's latency names the level that served it (see `demand`).
  require(0 < cfg.latL2 && cfg.latL2 < cfg.latL3 && cfg.latL3 < cfg.latDram,
    s"latencies must rise from L2 to DRAM: latL2 ${cfg.latL2}, latL3 ${cfg.latL3}, latDram ${cfg.latDram}")
  val l1 = new CacheSim(cfg.l1Bytes, cfg.l1Ways, cfg.lineBytes)
  val l2 = new CacheSim(cfg.l2Bytes, cfg.l2Ways, cfg.lineBytes)
  val l3 = new CacheSim(cfg.l3Bytes, cfg.l3Ways, cfg.lineBytes)

  var cycles: Double = 0.0
  var instructions: Long = 0L
  var computeCycles: Double = 0.0
  var memStallCycles: Double = 0.0
  var coreStallCycles: Double = 0.0
  var badSpecCycles: Double = 0.0
  var dramLines: Long = 0L

  private val prefetchReady = new PrefetchTable()

  // Diagnostic tallies (not part of the cost model).
  var dbgResidualStall: Double = 0.0
  var dbgEvictStall: Double = 0.0
  var dbgDemandStall: Double = 0.0
  var dbgEvictRefetch: Long = 0L

  // Completion cycles of in-flight fills (MSHR occupancy model), sorted
  // ascending in inflight(head until tail). The window can exceed `mshrs`
  // entries: a queued prefetch completes after the clock it was issued at.
  private var inflight = new Array[Double](2 * cfg.mshrs)
  private var head = 0
  private var tail = 0

  private val lineShift = l1.lineShift

  // CacheSim.find results of the last locate(): the hit slot, ~victim if
  // the level misses, or NotProbed (never a ~slot) when an inner level hit.
  private var w1 = 0
  private var w2 = 0
  private var w3 = 0
  private final val NotProbed = Int.MinValue

  /** Retire `n` instructions of straight-line computation. */
  @inline def compute(n: Int): Unit = {
    instructions += n
    val c = n / cfg.ipc
    computeCycles += c
    cycles += c
  }

  /** Long-latency ALU work (divides, RNG advance): stalls execution ports. */
  @inline def coreStall(c: Double): Unit = { coreStallCycles += c; cycles += c }

  /** Expected branch-misprediction cost; `p` is the misprediction rate. */
  @inline def mispredict(p: Double): Unit = {
    val c = p * cfg.mispredictPenalty
    badSpecCycles += c
    cycles += c
  }

  /** Drop the fills that completed by now: a prefix of the sorted window. */
  private def purgeInflight(): Unit = {
    while (head < tail && inflight(head) <= cycles) head += 1
    if (head == tail) { head = 0; tail = 0 }
  }

  private def addInflight(ready: Double): Unit = {
    if (tail == inflight.length) {
      val n = tail - head
      val dst = if (2 * n > inflight.length) new Array[Double](2 * inflight.length) else inflight
      System.arraycopy(inflight, head, dst, 0, n)
      inflight = dst; head = 0; tail = n
    }
    var j = tail
    while (j > head && inflight(j - 1) > ready) { inflight(j) = inflight(j - 1); j -= 1 }
    inflight(j) = ready
    tail += 1
  }

  /** Probe L1, then L2, then L3, stopping at the first level holding
    * `ln`; records the way at each level and returns the latency of the
    * level that serves the line (0 for an L1 hit). No state changes.
    */
  private def locate(ln: Long): Int = {
    w1 = l1.find(ln)
    if (w1 >= 0) { w2 = NotProbed; w3 = NotProbed; return 0 }
    w2 = l2.find(ln)
    if (w2 >= 0) { w3 = NotProbed; return cfg.latL2 }
    w3 = l3.find(ln)
    if (w3 >= 0) cfg.latL3 else cfg.latDram
  }

  /** Fill L3 and L2 with `ln` after `locate(ln)` missed L1. */
  private def fillOuter(ln: Long): Unit = {
    val i3 = if (w3 == NotProbed) l3.find(ln) else w3
    if (i3 >= 0) l3.touch(i3) else l3.insertAt(i3, ln)
    if (w2 >= 0) l2.touch(w2) else l2.insertAt(w2, ln)
  }

  /** Bring `ln` in from the level `locate(ln)` found, which serves it in
    * `lat` cycles: count the line if it comes from DRAM, then fill L3 and
    * L2 unless `outer` is false (an NTA prefetch bypasses them).
    */
  private def fetch(ln: Long, lat: Int, outer: Boolean = true): Unit = {
    if (lat == cfg.latDram) dramLines += 1
    if (outer) fillOuter(ln)
  }

  /** The demand path of every access kind: retire its instruction, probe
    * once and count the L1 access. Returns 0 on an L1 hit; on a miss,
    * fetches the line and returns the latency of the level that served it,
    * so each caller only applies its own stall rule. A `prefetched` line
    * evicted from L1 before its use is refetched and put back first, so
    * its use counts as an L1 hit.
    */
  private def demand(ln: Long, prefetched: Boolean = false): Int = {
    compute(1)
    val lat = locate(ln)
    if (w1 < 0) fetch(ln, lat) // fills L3 and L2 only: w1 still names L1's victim
    l1.accessAt(if (prefetched && w1 < 0) l1.insertAt(w1, ln) else w1, ln)
    lat
  }

  @inline private def stall(c: Double): Unit = { memStallCycles += c; cycles += c }

  /** Issue a software prefetch (1 instruction, non-blocking). */
  def prefetch(addr: Long, hint: PrefetchHint.Value = PrefetchHint.T0): Unit = {
    compute(1)
    val ln = addr >> lineShift
    val lat = locate(ln)
    if (w1 >= 0) return // already resident, nothing to do
    fetch(ln, lat, outer = hint != PrefetchHint.NTA)
    purgeInflight()
    var start = cycles
    val n = tail - head
    // wait for enough in-flight fills to drain
    if (n >= cfg.mshrs) start = math.max(start, inflight(head + n - cfg.mshrs))
    val ready = start + lat
    addInflight(ready)
    // The extra demand cost models where the line lands: T0 puts it in L1
    // (free on use), T1/T2 leave it in L2/L3 (a small, partially OOO-hidden
    // hit on use), NTA lands in L1 but bypasses L2/L3 so evicted lines must
    // be refetched from DRAM on reuse.
    val extra = hint match {
      case PrefetchHint.T0  => 0
      case PrefetchHint.T1  => 2 // L2 hit on use, mostly OOO-hidden
      case PrefetchHint.T2  => 6 // L3 hit on use, partly hidden
      case PrefetchHint.NTA => 0
    }
    prefetchReady.put(ln, ready, extra)
    l1.insertAt(w1, ln)
  }

  /** Dependent (pointer-chasing) read: pays full miss latency, or the
    * residual latency of an earlier prefetch of the same line.
    */
  def read(addr: Long): Unit = {
    val ln = addr >> lineShift
    val p = prefetchReady.find(ln)
    val lat = demand(ln, prefetched = p >= 0)
    if (p < 0) {
      if (lat > 0) { stall(lat); dbgDemandStall += lat }
      return
    }
    var s = math.max(0.0, prefetchReady.ready(p) - cycles) + prefetchReady.extra(p)
    prefetchReady.removeAt(p)
    dbgResidualStall += s
    // A prefetched line evicted from L1 before use (ring too large for
    // the L1 working set, §5.4) pays the refetch from wherever it
    // still lives — the mechanism that bounds the optimal ring size.
    if (lat > 0) {
      s += lat
      dbgEvictStall += lat
      dbgEvictRefetch += 1
    }
    if (s > 0) stall(s)
  }

  /** Independent read inside a tight loop with no inter-iteration
    * dependency (BFS visited checks, SSSP distance reads): the OOO window
    * overlaps ~`mlp` such misses, so each pays only latency/mlp. This is
    * the natural memory-level parallelism conventional graph workloads
    * enjoy and random walks lack (§3).
    */
  def readOverlapped(addr: Long, mlp: Int = 6): Unit = {
    val lat = demand(addr >> lineShift)
    if (lat > 0) stall(lat.toDouble / mlp)
  }

  /** Sequential scan read: the hardware stride prefetcher hides most of the
    * DRAM latency; a missing line costs the amortised stream stall.
    */
  def streamRead(addr: Long): Unit = {
    val lat = demand(addr >> lineShift)
    if (lat == cfg.latDram) stall(cfg.streamStall)
    else if (lat > 0) stall(math.min(lat, cfg.streamStall).toDouble)
  }

  /** Sequential write (e.g. appending to the walk output buffer): stores
    * retire through the store buffer and almost never stall the pipeline;
    * charge the instruction and the DRAM traffic (write-allocate) only.
    */
  def streamWrite(addr: Long): Unit = demand(addr >> lineShift)

  def seconds: Double = cycles / (cfg.freqGhz * 1e9)

  def snapshot(): SimStats = SimStats(
    cycles, instructions, computeCycles, memStallCycles, coreStallCycles,
    badSpecCycles, dramLines, cfg.pipelineWidth, cfg.freqGhz, cfg.lineBytes)
}

/** Immutable counter snapshot; differences of snapshots give phase costs. */
final case class SimStats(
    cycles: Double,
    instructions: Long,
    computeCycles: Double,
    memStallCycles: Double,
    coreStallCycles: Double,
    badSpecCycles: Double,
    dramLines: Long,
    pipelineWidth: Int,
    freqGhz: Double,
    lineBytes: Int,
) {
  def -(o: SimStats): SimStats = SimStats(
    cycles - o.cycles, instructions - o.instructions,
    computeCycles - o.computeCycles, memStallCycles - o.memStallCycles,
    coreStallCycles - o.coreStallCycles, badSpecCycles - o.badSpecCycles,
    dramLines - o.dramLines, pipelineWidth, freqGhz, lineBytes)

  def +(o: SimStats): SimStats = SimStats(
    cycles + o.cycles, instructions + o.instructions,
    computeCycles + o.computeCycles, memStallCycles + o.memStallCycles,
    coreStallCycles + o.coreStallCycles, badSpecCycles + o.badSpecCycles,
    dramLines + o.dramLines, pipelineWidth, freqGhz, lineBytes)

  def seconds: Double = cycles / (freqGhz * 1e9)

  /** Total DRAM traffic in bytes (read + write, as in the paper's tables). */
  def dramBytes: Long = dramLines * lineBytes

  /** Bandwidth in GB/s for `threads` concurrent workers with this profile. */
  def bandwidthGBs(threads: Int): Double =
    if (cycles <= 0) 0.0 else dramBytes.toDouble * threads / (seconds * 1e9)

  def tmam: Tmam = Tmam.from(this)
}

object SimStats {
  private val cfg = MemConfig()
  def zero: SimStats = SimStats(0, 0, 0, 0, 0, 0, 0, cfg.pipelineWidth, cfg.freqGhz, cfg.lineBytes)
}
