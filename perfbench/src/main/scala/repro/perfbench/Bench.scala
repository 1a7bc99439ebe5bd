package repro.perfbench

import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.{CSRGraph, GraphGen}
import repro.memsim.{MemConfig, MemSim, PrefetchHint, SimStats}
import repro.sampling.{SamplingMethod, StaticTables}
import repro.systems.Systems

import scala.collection.mutable.ArrayBuffer

/** Two-clock walk benchmark on the `lj` analogue.
  *
  * Every workload is a closed loop with one client: the next batch starts
  * when the previous one has finished. Batch `i` draws its sources and its
  * walker seed from `(seed, i)`; the graph itself is generated with
  * GraphGen's fixed seed, as in every table. Each batch runs on a fresh
  * MemSim, as `ThunderRW.runLocal` does, so the modelled caches start empty.
  *
  * Layers are timed from outside, at their public entry points:
  *  - graph:    `GraphGen.build` (Spark generation + `GraphBuilder.fromEdges`)
  *  - sampling: `ThunderRW.preprocess` (`StaticTables.build`)
  *  - core:     `RingEngine.run` / `SequentialEngine.run` on a MemSim owned
  *              here, or `ThunderRW.run` for the Spark fan-out
  *  - memsim:   counters of that MemSim (`CacheSim` hits/misses, stalls)
  *
  * Usage: `Bench --workload W --seed N --seconds S --trace 0|1 --out F --work D`.
  * Writes the result object to F; with trace on, the span log goes to D.
  */
object Bench {

  /** One workload. `minLen`/`cap` bound a valid walk's length. */
  final case class Spec(name: String, walkers: Int, spark: Boolean,
                        kind: EngineKind.Value, sampling: SamplingMethod.Value,
                        app: () => RandomWalkApp, minLen: Int, cap: Int)

  val specs: Seq[Spec] = Seq(
    // Table 11/13 w/si: DeepWalk/ALIAS on the interleaved ring, no Spark.
    Spec("si-alias-lj", 600, spark = false, EngineKind.Interleaved, SamplingMethod.ALIAS,
      () => new Apps.DeepWalk(80), 80, 80),
    // HG's Node2Vec cell, the wo/si path: no prefetch, no tables.
    Spec("seq-n2v-lj", 800, spark = false, EngineKind.Sequential, SamplingMethod.OREJ,
      () => new Apps.Node2Vec(2.0, 0.5, 80), 80, 80),
    // Table 6 TRW PPR cell through the Spark fan-out, all walkers from the hub.
    Spec("spark-ppr-lj", 4000, spark = true, Systems.TRW.kind, Systems.TRW.samplingFor("PPR"),
      () => new Apps.PPR(0.2), 1, 10000),
  )

  val Dataset = "lj"
  val SetupRepeats = 3
  /** Untimed batches that warm the JIT and Spark's code paths. */
  val WarmupBatches = 20
  /** Simulated counts cover the first SimBatches timed batches, so they
    * repeat exactly for a seed however many batches the time allows. */
  val SimBatches = 8
  val Ring = 64
  /** Back-to-back (this engine, other engine) runs of batch 0 after the loop. */
  val CrossPairs = 3
  val cfg: MemConfig = MemConfig()

  private val threadMx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private def threadAlloc(): Long = threadMx.getThreadAllocatedBytes(Thread.currentThread().getId)
  private def allThreadsAlloc(): Long =
    threadMx.getThreadAllocatedBytes(threadMx.getAllThreadIds).filter(_ > 0).sum
  private def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.toArray.map(
      _.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getCollectionTime).sum

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile of a non-empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** Sources and walker seed of batch `b` (warm-up batches use b < 0). */
  def batchInput(spec: Spec, g: CSRGraph, hub: Int, seed: Long, b: Long): (Array[Int], Long) = {
    val rng = new java.util.SplittableRandom(seed * 0x9E3779B97F4A7C15L + b)
    val sources =
      if (spec.spark) Array.fill(spec.walkers)(hub)
      else Array.fill(spec.walkers)(rng.nextInt(g.numVertices))
    (sources, rng.nextLong())
  }

  def engine(kind: EngineKind.Value, g: CSRGraph, app: RandomWalkApp, sampling: SamplingMethod.Value,
             tables: StaticTables, sim: MemSim): Array[Walker] => EngineResult = kind match {
    case EngineKind.Sequential => new SequentialEngine(g, app, sampling, tables, sim).run
    case EngineKind.Interleaved =>
      new RingEngine(g, app, sampling, tables, sim, Ring, Ring / 2, PrefetchHint.T0, amac = false).run
    case other => sys.error(s"engine $other is not benchmarked")
  }

  /** memsim counters read from a MemSim owned here. */
  final case class SimCounters(l1h: Long, l1m: Long, l2h: Long, l2m: Long, l3h: Long, l3m: Long,
                               evictRefetch: Long, residual: Double, demand: Double, evict: Double) {
    def +(o: SimCounters): SimCounters = SimCounters(l1h + o.l1h, l1m + o.l1m, l2h + o.l2h, l2m + o.l2m,
      l3h + o.l3h, l3m + o.l3m, evictRefetch + o.evictRefetch, residual + o.residual,
      demand + o.demand, evict + o.evict)
  }
  object SimCounters {
    val zero: SimCounters = SimCounters(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    def of(s: MemSim): SimCounters = SimCounters(s.l1.hits, s.l1.misses, s.l2.hits, s.l2.misses,
      s.l3.hits, s.l3.misses, s.dbgEvictRefetch, s.dbgResidualStall, s.dbgDemandStall, s.dbgEvictStall)
  }

  /** Outcome of one batch: walks indexed by walker id, their sources, host
    * times, and simulator output.
    */
  final case class Batch(index: Long, walks: Array[Array[Int]], sources: Array[Int], steps: Long,
                         wallNs: Long, coreNs: Long, allocBytes: Long,
                         stats: SimStats, counters: SimCounters)

  final class Args(m: Map[String, String]) {
    private def req(k: String): String = m.getOrElse(k, sys.error(s"--$k is required"))
    val workload: String = req("workload")
    val seed: Long = req("seed").toLong
    val seconds: Double = req("seconds").toDouble
    val trace: Boolean = req("trace") == "1"
    val out: String = req("out")
    val work: String = req("work")
  }

  def parseArgs(args: Array[String]): Args = {
    require(args.length % 2 == 0, s"expected --key value pairs, got ${args.mkString(" ")}")
    new Args(args.grouped(2).map { case Array(k, v) =>
      require(k.startsWith("--"), s"bad option $k"); k.drop(2) -> v
    }.toMap)
  }

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val spec = specs.find(_.name == args.workload).getOrElse(
      sys.error(s"unknown workload '${args.workload}'; known: ${specs.map(_.name).mkString(", ")}"))
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.local.dir", s"${args.work}/spark-local")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    try new Bench(spec, args, spark, cores).run()
    finally spark.stop()
  }
}

final class Bench(spec: Bench.Spec, args: Bench.Args, spark: SparkSession, cores: Int) {
  import Bench._

  private val tracer = new Tracer(args.trace)
  private val tap = new TaskTap
  private val app = spec.app()

  private def secs(ns: Long): Double = ns / 1e9

  def run(): Unit = {
    spark.sparkContext.addSparkListener(tap)

    println(s"[perfbench] workload=${spec.name} seed=${args.seed} seconds=${args.seconds} " +
      s"trace=${if (args.trace) 1 else 0} master=local[$cores] " +
      s"maxHeap=${Runtime.getRuntime.maxMemory >> 20}MB java=${System.getProperty("java.version")}")

    // ---- set-up: graph + static tables, repeated; the last one is kept.
    var g: CSRGraph = null
    var tables: StaticTables = null
    val buildS = ArrayBuffer.empty[Double]
    val prepS = ArrayBuffer.empty[Double]
    for (r <- 0 until SetupRepeats) {
      g = null; tables = null
      tracer.span("setup", s"setup-$r") { sid =>
        val t0 = System.nanoTime()
        g = tracer.span("graph.build", s"setup-$r", sid)(_ => GraphGen.build(spark, Dataset))
        val t1 = System.nanoTime()
        tables = tracer.span("sampling.preprocess", s"setup-$r", sid)(_ =>
          ThunderRW.preprocess(g, app, spec.sampling, cfg)._1)
        val t2 = System.nanoTime()
        buildS += secs(t1 - t0); prepS += secs(t2 - t1)
      }
    }
    val setupS = median(buildS.indices.map(i => buildS(i) + prepS(i)))
    println(s"[perfbench] set-up x$SetupRepeats: graph.build ${buildS.map(x => f"$x%.3f").mkString(" ")} s; " +
      s"sampling.preprocess ${prepS.map(x => f"$x%.3f").mkString(" ")} s")
    System.gc(); System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    val hub = repro.exp.Experiments.hubVertex(g)

    // ---- warm-up batches: JIT and Spark code paths, excluded from timing.
    val w0 = System.nanoTime()
    for (j <- 0 until WarmupBatches) runBatch(g, tables, hub, -1L - j, None)
    val warmupS = secs(System.nanoTime() - w0)

    // ---- timed closed loop.
    val batches = ArrayBuffer.empty[Batch]
    var attempted = 0L
    var failed = 0L
    var batch0: Batch = null
    var batch0Bad: Array[Boolean] = null
    val gc0 = gcMs()
    val loopStartUs = tracer.nowUs()
    val deadline = System.nanoTime() + (args.seconds * 1e9).toLong
    var b = 0
    while (b < SimBatches || System.nanoTime() < deadline) {
      attempted += spec.walkers
      try {
        val res = runBatch(g, tables, hub, b, Some(b))
        batches += res
        // Untimed output check.
        val bad = WalkCheck.failedMask(g, res.sources, res.walks, res.steps, spec.minLen, spec.cap)
        if (b == 0) { batch0 = res; batch0Bad = bad } else failed += bad.count(identity)
      } catch {
        case e: Exception =>
          Console.err.println(s"[perfbench] batch $b failed: $e")
          if (b == 0) { batch0Bad = Array.fill(spec.walkers)(true) } else failed += spec.walkers
      }
      b += 1
    }
    val loopEndUs = tracer.nowUs()
    val gcTotalMs = (gcMs() - gc0).toDouble
    tap.awaitIdle()

    // ---- batch 0 cross-checks, untimed: the other engine (sequential <->
    // interleaved; for the Spark fan-out, a local interleaved run on the same
    // ids) must give the same walks, and a replay the same walks and SimStats.
    // Pairs run back to back, so their host-time ratio shares one machine state.
    var replayCounters = SimCounters.zero
    var crossRatio = 0.0
    if (batch0 != null) {
      val (sources, wseed) = batchInput(spec, g, hub, args.seed, 0)
      val otherKind =
        if (spec.spark) spec.kind
        else if (spec.kind == EngineKind.Sequential) EngineKind.Interleaved else EngineKind.Sequential
      val sameNs = ArrayBuffer.empty[Double]
      val otherNs = ArrayBuffer.empty[Double]
      try for (k <- 0 until CrossPairs) {
        val sim = new MemSim(cfg)
        val walkers = ThunderRW.makeWalkers(0 until spec.walkers, sources, wseed)
        val t0 = System.nanoTime()
        val other = engine(otherKind, g, app, spec.sampling, tables, sim)(walkers)
        otherNs += (System.nanoTime() - t0).toDouble
        if (k == 0) replayCounters = SimCounters.of(sim)
        val replay = runBatch(g, tables, hub, 0, None)
        sameNs += replay.coreNs.toDouble
        WalkCheck.markDifferent(batch0Bad, batch0.walks, other.walks)
        WalkCheck.markDifferent(batch0Bad, batch0.walks, replay.walks)
        if (replay.stats != batch0.stats) {
          Console.err.println(s"[perfbench] replay of batch 0 changed SimStats: ${batch0.stats} vs ${replay.stats}")
          java.util.Arrays.fill(batch0Bad, true)
        }
      } catch {
        case e: Exception =>
          Console.err.println(s"[perfbench] re-run of batch 0 failed: $e")
          java.util.Arrays.fill(batch0Bad, true)
      }
      if (sameNs.nonEmpty) crossRatio = median(sameNs.toSeq) / median(otherNs.take(sameNs.length).toSeq)
    }
    if (batch0Bad != null) failed += batch0Bad.count(identity)

    // ---- metrics.
    val n = batches.length
    val walls = batches.map(_.wallNs / 1e6).toSeq
    val totalSteps = batches.map(_.steps).sum.toDouble
    val stepsPerS = totalSteps / math.max(1e-9, secs(batches.map(_.wallNs).sum))
    val failedFrac = if (attempted == 0) 1.0 else failed.toDouble / attempted

    val e2e = Seq(
      ("steps_per_s", stepsPerS, "steps/s"),
      ("batch_ms_p50", if (n == 0) 0.0 else quantile(walls, 0.5), "ms"),
      ("batch_ms_p90", if (n == 0) 0.0 else quantile(walls, 0.9), "ms"),
      ("setup_s", setupS, "s"),
      ("heap_mb", heapMb, "MB"),
    )

    val simB = batches.take(SimBatches)
    val simSteps = math.max(1.0, simB.map(_.steps).sum.toDouble)
    val st = simB.map(_.stats).foldLeft(SimStats.zero)(_ + _)
    // Spark tasks run their own MemSim; their cache counters come from the
    // local replay of batch 0 above.
    val (sc, scSteps) =
      if (spec.spark) (replayCounters, math.max(1.0, if (batch0 == null) 0.0 else batch0.steps.toDouble))
      else (simB.map(_.counters).foldLeft(SimCounters.zero)(_ + _), simSteps)
    def rate(m: Long, h: Long): Double = if (m + h == 0) 0.0 else m.toDouble / (m + h)
    val tm = st.tmam
    val instrAll = batches.map(_.stats.instructions).sum.toDouble

    val tasks = tap.tasks
    val perBatchTasks = tasks.groupBy(_.batch)
    val driverMs = batches.map { bt =>
      val critical = perBatchTasks.getOrElse(bt.index.toInt, Nil).groupBy(_.stage).values
        .map(ts => (ts.map(_.finishMs).max - ts.map(_.launchMs).min).toDouble).sum
      bt.wallNs / 1e6 - critical
    }
    def perBatch(x: Double): Double = if (n == 0) 0.0 else x / n

    val layer = Seq(
      ("graph.build_s", median(buildS.toSeq), "s"),
      ("graph.bytes", g.memoryBytes.toDouble, "bytes"),
      ("sampling.preprocess_s", median(prepS.toSeq), "s"),
      ("sampling.table_bytes", if (tables == null) 0.0 else tables.memoryBytes.toDouble, "bytes"),
      ("core.host_ns_per_step", batches.map(_.coreNs).sum / math.max(1.0, totalSteps), "ns"),
      ("core.host_ns_per_sim_instr", batches.map(_.coreNs).sum / math.max(1.0, instrAll), "ns"),
      ("core.alloc_bytes_per_step", batches.map(_.allocBytes).sum / math.max(1.0, totalSteps), "bytes"),
      ("core.gc_ms_per_batch", perBatch(gcTotalMs), "ms"),
      ("core.warmup_s", warmupS, "s"),
      ("core.cross_engine_host_ratio", crossRatio, "ratio"),
      ("core.sim_cycles_per_step", st.cycles / simSteps, "cycles"),
      ("core.sim_instr_per_step", st.instructions / simSteps, "instr"),
      ("memsim.l1_miss_rate", rate(sc.l1m, sc.l1h), "frac"),
      ("memsim.l2_miss_rate", rate(sc.l2m, sc.l2h), "frac"),
      ("memsim.l3_miss_rate", rate(sc.l3m, sc.l3h), "frac"),
      ("memsim.prefetch_evict_refetch_per_step", sc.evictRefetch / scSteps, "count"),
      ("memsim.residual_stall_cycles_per_step", sc.residual / scSteps, "cycles"),
      ("memsim.demand_stall_cycles_per_step", sc.demand / scSteps, "cycles"),
      ("memsim.evict_stall_cycles_per_step", sc.evict / scSteps, "cycles"),
      ("memsim.mem_stall_cycles_per_step", st.memStallCycles / simSteps, "cycles"),
      ("memsim.mem_bound_frac", tm.memory, "frac"),
      ("memsim.retiring_frac", tm.retiring, "frac"),
      ("memsim.dram_lines_per_step", st.dramLines / simSteps, "count"),
      ("memsim.bandwidth_gbs", st.bandwidthGBs(Systems.Threads), "GB/s"),
      ("run.driver_ms_per_batch", if (spec.spark) perBatch(driverMs.sum) else 0.0, "ms"),
      ("run.task_ms_per_batch", perBatch(tasks.map(t => (t.finishMs - t.launchMs).toDouble).sum), "ms"),
      ("run.task_deserialize_ms_per_batch", perBatch(tasks.map(_.deserializeMs.toDouble).sum), "ms"),
      ("run.result_bytes_per_batch", perBatch(tasks.map(_.resultBytes.toDouble).sum), "bytes"),
      ("run.tasks_per_batch", perBatch(tasks.length.toDouble), "count"),
      ("trace.steps_per_s", stepsPerS, "steps/s"),
      ("check.failed_frac", failedFrac, "frac"),
    )

    // ---- report.
    print(s"${spec.name}: $n timed batches of ${spec.walkers} walkers (closed loop, 1 client); " +
      s"$WarmupBatches warm-up batches excluded (core.warmup_s=${f"$warmupS%.3f"}); " +
      s"each batch runs on a fresh MemSim, so the modelled caches start empty.\n")
    if (n < 100) print(s"note: batch_ms_p90 rests on $n samples (fewer than 100).\n")
    e2e.foreach { case (k, v, u) => print(f"  $k%-22s $v%14.4f $u\n") }
    print(f"  failed_frac            $failedFrac%14.6f (failed $failed of $attempted walks)\n")
    print(simulatorReport(st, simSteps, tm.memory))
    if (args.trace) layer.foreach { case (k, v, u) => print(f"  $k%-40s $v%16.6f $u\n") }

    if (args.trace) {
      for ((i, ts) <- perBatchTasks; parent = tracer.spans.find(s => s.trace == s"batch-$i" &&
             s.name == "core.run").map(_.id).getOrElse(-1); t <- ts)
        tracer.add(parent, s"batch-$i", "spark.task", t.launchMs * 1000.0, t.finishMs * 1000.0,
          Seq("stage" -> t.stage.toDouble, "run_ms" -> t.runMs.toDouble,
            "deserialize_ms" -> t.deserializeMs.toDouble, "result_bytes" -> t.resultBytes.toDouble))
      val path = java.nio.file.Paths.get(args.work, s"spans-${spec.name}-seed${args.seed}.json")
      java.nio.file.Files.write(path, tracer.toJson.getBytes("UTF-8"))
      println(s"[perfbench] ${tracer.spans.length} spans written to $path")
    }

    def obj(xs: Seq[(String, Double, String)]): String =
      xs.map { case (k, v, u) => s""""$k":{"value":${Json.num(v)},"unit":"$u"}""" }.mkString("{", ",", "}")
    val result =
      s"""{"correct":${failed == 0 && n > 0},"attempted":$attempted,"failed":$failed,""" +
        s""""batches":$n,"e2e":${obj(e2e)},"layer":${obj(layer)},""" +
        s""""window_us":[${Json.num(loopStartUs)},${Json.num(loopEndUs)}],""" +
        s""""batch_ms":${walls.map(Json.num).mkString("[", ",", "]")}}"""
    java.nio.file.Files.write(java.nio.file.Paths.get(args.out), result.getBytes("UTF-8"))
  }

  /** Paper reference values beside the simulated headline numbers. */
  private def simulatorReport(st: SimStats, steps: Double, memBound: Double): String = {
    val cps = st.cycles / steps
    val ref = spec.name match {
      case "si-alias-lj" =>
        "paper Table 13 ALIAS w/si: 139.1 cycles/step; Table 11 memory-bound 7-27%"
      case "seq-n2v-lj" =>
        "no paper reference (Table 1's Node2Vec row uses ALIAS, not O-REJ)"
      case _ => "no paper reference for the per-step cost of this cell"
    }
    f"  simulated: $cps%.1f cycles/step, memory-bound ${memBound * 100}%.1f%% " +
      s"(first $SimBatches batches) -- $ref. The memory model is not validated against hardware.\n"
  }

  /** Run batch `b`; `timed` names the timed batch index for spans and job groups. */
  private def runBatch(g: CSRGraph, tables: StaticTables, hub: Int, b: Long, timed: Option[Int]): Batch = {
    val (sources, wseed) = batchInput(spec, g, hub, args.seed, b)
    val trace = timed.map(i => s"batch-$i").getOrElse("untimed")
    def traced[T](name: String, parent: Int)(f: Int => T): T =
      if (timed.isDefined) tracer.span(name, trace, parent)(f) else f(-1)
    traced("batch", -1) { parent =>
      if (spec.spark) {
        val sc = spark.sparkContext
        sc.setJobGroup(trace, spec.name, interruptOnCancel = false)
        val a0 = allThreadsAlloc()
        val t0 = System.nanoTime()
        val sum = traced("core.run", parent) { _ =>
          ThunderRW.run(spark, g, app, spec.sampling, spec.kind, spec.walkers, sources,
            threads = Systems.TRW.threads, cfg = cfg, taskRing = Ring, seed = wseed, keepWalks = true)
        }
        val ns = System.nanoTime() - t0
        val alloc = allThreadsAlloc() - a0
        sc.clearJobGroup()
        val walks = new Array[Array[Int]](spec.walkers)
        sum.walks.foreach(w => if (w.id >= 0 && w.id < walks.length) walks(w.id.toInt) = w.path.toArray)
        for (i <- walks.indices if walks(i) == null) walks(i) = Array.empty[Int]
        Batch(b, walks, sources, sum.steps, ns, ns, alloc, sum.stats, SimCounters.zero)
      } else {
        val t0 = System.nanoTime()
        val walkers = ThunderRW.makeWalkers(0 until spec.walkers, sources, wseed)
        val sim = new MemSim(cfg)
        val run = engine(spec.kind, g, app, spec.sampling, tables, sim)
        val a0 = threadAlloc()
        val c0 = System.nanoTime()
        val res = traced("core.engine", parent)(_ => run(walkers))
        val c1 = System.nanoTime()
        val alloc = threadAlloc() - a0
        val t1 = System.nanoTime()
        Batch(b, res.walks, sources, res.steps, t1 - t0, c1 - c0, alloc, res.stats, SimCounters.of(sim))
      }
    }
  }
}
