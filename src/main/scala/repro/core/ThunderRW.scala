package repro.core

import org.apache.spark.{SparkContext, TaskContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.graph.CSRGraph
import repro.memsim.{MemConfig, MemSim, PrefetchHint, SimStats}
import repro.sampling.{SamplingMethod, StaticTables, WalkerType}

import scala.collection.immutable.ArraySeq

/** Engine flavours. */
object EngineKind extends Enumeration {
  val Sequential, Interleaved, Amac = Value
}

/** One emitted walk: query id and vertex sequence, source first. */
final case class WalkRow(id: Long, path: Seq[Int]) {
  def source: Int = path.head
  def len: Int = path.length - 1 // steps taken
}

/** One simulated worker's output, as the driver keeps it. */
final case class PartResult(stats: SimStats, steps: Long, walks: Seq[WalkRow])

/** Driver-side summary of one run: a [[PartResult]] per worker with ids, in worker order. */
final case class RunSummary(parts: Seq[PartResult], preprocSeconds: Double) {
  /** Every worker's walks, in ascending id order. */
  lazy val walks: Seq[WalkRow] = parts.flatMap(_.walks)
  def steps: Long = parts.map(_.steps).sum
  // `+` keeps its left operand's MemConfig fields, so reduce, not fold from zero.
  def stats: SimStats = parts.map(_.stats).reduceOption(_ + _).getOrElse(SimStats.zero)
  /** Parallel makespan: the slowest simulated worker. */
  def execSeconds: Double = if (parts.isEmpty) 0.0 else parts.map(_.stats.seconds).max
  def totalSeconds: Double = execSeconds + preprocSeconds
}

/** ThunderRW's top level: splits the query set into contiguous id blocks,
  * one per simulated worker (the paper's static scheduling, §4.2), and runs
  * one engine per block in a single-stage Spark job over a broadcast CSR
  * graph, with one Spark task per host core. Results come back as walks in
  * id order plus per-worker simulator statistics; `walksToSteps` turns
  * walks into a Dataset for analysis.
  */
object ThunderRW {

  /** Does (app, sampling) need the static preprocessing pass (Alg. 3)? */
  def needsTables(app: RandomWalkApp, sampling: SamplingMethod.Value): Boolean =
    app.walkerType != WalkerType.Dynamic &&
      (sampling == SamplingMethod.ITS || sampling == SamplingMethod.ALIAS ||
        sampling == SamplingMethod.REJ)

  /** Build static tables, charging preprocessing cost to a fresh sim.
    * Returns (tables-or-null, preprocessing cycles).
    */
  def preprocess(g: CSRGraph, app: RandomWalkApp, sampling: SamplingMethod.Value,
                 cfg: MemConfig, charge: Boolean = true): (StaticTables, Double) = {
    if (!needsTables(app, sampling)) (null, 0.0)
    else {
      val sim = if (charge) new MemSim(cfg) else null
      val t = StaticTables.build(g, sampling, uniform = app.walkerType == WalkerType.Unbiased, sim)
      (t, if (sim == null) 0.0 else sim.cycles)
    }
  }

  /** Construct walkers for ids `[0, n)` with the given source mapping. */
  def makeWalkers(ids: Seq[Int], sources: Array[Int], seed: Long): Array[Walker] =
    ids.map(i => new Walker(i, sources(i), seed)).toArray

  /** Rejects a start vertex outside `[0, V)` before it reaches the engine. */
  private def requireSource(g: CSRGraph, id: Int, v: Int): Unit =
    require(v >= 0 && v < g.numVertices, s"query $id starts at vertex $v, outside [0, ${g.numVertices})")

  /** Run a batch of walkers on one simulated worker (no Spark) — the unit
    * the Spark driver distributes, also used directly by unit tests.
    */
  def runLocal(g: CSRGraph, app: RandomWalkApp, sampling: SamplingMethod.Value,
               kind: EngineKind.Value, tables: StaticTables, walkers: Array[Walker],
               cfg: MemConfig = MemConfig(), taskRing: Int = 64,
               hint: PrefetchHint.Value = PrefetchHint.T0,
               overhead: Overhead = Overhead()): EngineResult = {
    walkers.foreach(w => requireSource(g, w.id, w.cur))
    new SdgEngine(g, app, sampling, tables, new MemSim(cfg), kind, taskRing, hint, overhead).run(walkers)
  }

  /** Distributed run: `nQueries` walkers, `sources(i)` the start vertex of
    * walker i, split over `threads` simulated workers. Worker t runs ids
    * `[t·n/threads, (t+1)·n/threads)` in ascending order on its own engine,
    * as OpenMP's `schedule(static)` would, so the split and every simulated
    * number are independent of the host's core count. The workers run in
    * `min(threads, defaultParallelism)` Spark tasks, each a contiguous range
    * of workers. The summary's walks come back in ascending id order (none
    * unless `keepWalks`); its `preprocSeconds` is the static preprocessing
    * time split over `threads` workers.
    *
    * The graph broadcast is cached across calls on the same context and
    * graph (see `graphBroadcast`), so runs on one session must not overlap
    * on different graphs.
    */
  def run(spark: SparkSession, g: CSRGraph, app: RandomWalkApp,
          sampling: SamplingMethod.Value, kind: EngineKind.Value,
          nQueries: Int, sources: Array[Int], threads: Int = 10,
          cfg: MemConfig = MemConfig(), taskRing: Int = 64,
          overhead: Overhead = Overhead(), seed: Long = 2021L,
          keepWalks: Boolean = true): RunSummary = {
    require(threads >= 1, s"threads must be at least 1, got $threads")
    require(nQueries >= 0, s"nQueries must be non-negative, got $nQueries")
    require(sources.length >= nQueries, s"need a source per query: $nQueries queries, ${sources.length} sources")
    (0 until nQueries).foreach(q => requireSource(g, q, sources(q)))

    val (tables, preprocCycles) = preprocess(g, app, sampling, cfg)
    // Preprocessing is embarrassingly parallel over vertices; the paper's
    // systems run it on all threads.
    val preprocSeconds = preprocCycles / (cfg.freqGhz * 1e9) / threads

    // Build one engine here, as every worker will: its constructor and
    // MemSim's reject bad settings on the driver, not inside a task.
    new SdgEngine(g, app, sampling, tables, new MemSim(cfg), kind, taskRing, PrefetchHint.T0, overhead)

    val sc = spark.sparkContext
    val bg = graphBroadcast(sc, g)
    val bt = if (tables == null) null else sc.broadcast(tables)
    // One (first id, sources) block per worker. parallelize slices the
    // blocks contiguously, so task j runs a range of workers in ascending
    // order and the results come back in worker order.
    val blocks = (0 until threads).map { t =>
      val lo = (t.toLong * nQueries / threads).toInt
      val hi = ((t + 1).toLong * nQueries / threads).toInt
      (lo, java.util.Arrays.copyOfRange(sources, lo, hi))
    }
    val tasks = math.min(threads, sc.defaultParallelism)
    val task = new WorkerBlocksTask(bg, bt, app, sampling, kind, cfg, taskRing, overhead, seed, keepWalks)
    val results =
      try sc.runJob(sc.parallelize(blocks, tasks), task).flatten
      finally if (bt != null) bt.destroy()
    val parts = blocks.filter(_._2.nonEmpty).zip(results).map { case ((lo, _), res) =>
      val walks = ArraySeq.tabulate(res.walks.length) { i =>
        WalkRow(lo + i, ArraySeq.unsafeWrapArray(res.walks(i)))
      }
      PartResult(res.stats, res.steps, walks)
    }
    RunSummary(parts, preprocSeconds)
  }

  // One-slot cache of the CSR broadcast, keyed by reference identity on
  // (context, graph). Table 6 loops with the dataset outermost, so one slot
  // serves every cell of a dataset.
  private var graphSlot: (SparkContext, CSRGraph, Broadcast[CSRGraph]) = _

  /** The broadcast of `g` on `sc`: reused while both stay the same and `sc`
    * is live; otherwise the old one is destroyed (if its context still runs)
    * and replaced.
    */
  private def graphBroadcast(sc: SparkContext, g: CSRGraph): Broadcast[CSRGraph] = synchronized {
    val slot = graphSlot
    if (slot != null && (slot._1 eq sc) && (slot._2 eq g) && !sc.isStopped) slot._3
    else {
      graphSlot = null
      if (slot != null && !slot._1.isStopped) slot._3.destroy()
      val b = sc.broadcast(g)
      graphSlot = (sc, g, b)
      b
    }
  }

  /** Walk output as a DataFrame-friendly Dataset for downstream analysis
    * (and DuckDB oracle checks) — one row per (walk, position).
    */
  def walksToSteps(spark: SparkSession, walks: Seq[WalkRow]): Dataset[(Long, Int, Int)] = {
    import spark.implicits._
    walks.flatMap(w => w.path.zipWithIndex.map { case (v, pos) => (w.id, pos, v) }).toDS()
      .withColumnRenamed("_1", "walk_id").withColumnRenamed("_2", "pos")
      .withColumnRenamed("_3", "vertex").as[(Long, Int, Int)]
  }
}

/** The task of [[ThunderRW.run]]: runs each non-empty (first id, sources)
  * block of its partition on a fresh engine and returns the engines'
  * results, in block order, with the walks dropped unless `keepWalks`.
  * A named class rather than a lambda, so Spark's closure cleaner has no
  * enclosing class files to parse when the job is submitted.
  */
private[core] final class WorkerBlocksTask(
    graph: Broadcast[CSRGraph], tables: Broadcast[StaticTables],
    app: RandomWalkApp, sampling: SamplingMethod.Value, kind: EngineKind.Value,
    cfg: MemConfig, taskRing: Int, overhead: Overhead, seed: Long, keepWalks: Boolean,
) extends ((TaskContext, Iterator[(Int, Array[Int])]) => Array[EngineResult]) with Serializable {

  def apply(ctx: TaskContext, blocks: Iterator[(Int, Array[Int])]): Array[EngineResult] =
    blocks.filter(_._2.nonEmpty).map { case (lo, src) =>
      val walkers = Array.tabulate(src.length)(i => new Walker(lo + i, src(i), seed))
      val res = ThunderRW.runLocal(graph.value, app, sampling, kind,
        if (tables == null) null else tables.value, walkers, cfg, taskRing, overhead = overhead)
      if (keepWalks) res else res.copy(walks = Array.empty[Array[Int]])
    }.toArray
}
