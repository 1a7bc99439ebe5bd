package repro.perfbench

import org.apache.spark.scheduler._

import scala.collection.mutable.ArrayBuffer

/** One span: a timed call into a layer. Times are epoch microseconds;
  * `trace` groups the spans of one batch (or of one set-up repetition).
  */
final case class Span(id: Int, parent: Int, trace: String, name: String,
                      startUs: Double, endUs: Double, attrs: Seq[(String, Double)] = Nil)

/** In-memory span log, written once when the benchmark ends. When disabled
  * it records nothing and `span` only runs its body.
  */
final class Tracer(val enabled: Boolean) {
  private val epochUs0 = System.currentTimeMillis() * 1000.0
  private val nano0 = System.nanoTime()
  val spans = ArrayBuffer.empty[Span]

  def nowUs(): Double = epochUs0 + (System.nanoTime() - nano0) / 1000.0

  /** Run `body` as span `name`; the body receives the new span's id. */
  def span[T](name: String, trace: String, parent: Int = -1)(body: Int => T): T =
    if (!enabled) body(-1)
    else {
      val id = spans.length
      spans += Span(id, parent, trace, name, nowUs(), 0.0)
      val out = body(id)
      spans(id) = spans(id).copy(endUs = nowUs())
      out
    }

  def add(parent: Int, trace: String, name: String, startUs: Double, endUs: Double,
          attrs: Seq[(String, Double)]): Unit =
    if (enabled) spans += Span(spans.length, parent, trace, name, startUs, endUs, attrs)

  def toJson: String = spans.map { s =>
    val a = s.attrs.map { case (k, v) => s""""$k":${Json.num(v)}""" }.mkString(",")
    s"""{"id":${s.id},"parent":${s.parent},"trace":"${s.trace}","name":"${s.name}",""" +
      s""""start_us":${Json.num(s.startUs)},"end_us":${Json.num(s.endUs)},"attrs":{$a}}"""
  }.mkString("[\n", ",\n", "\n]")
}

/** Spark task metrics of one finished task of a timed batch. */
final case class TaskRec(batch: Int, stage: Int, launchMs: Long, finishMs: Long,
                         runMs: Long, deserializeMs: Long, resultBytes: Long)

/** Collects the tasks of jobs run under job group `batch-<i>`. Listener
  * events arrive asynchronously; `awaitIdle` waits for every started job's
  * end event, which the bus posts after the job's task-end events.
  */
final class TaskTap extends SparkListener {
  private val stageBatch = scala.collection.concurrent.TrieMap.empty[Int, Int]
  private val started = new java.util.concurrent.atomic.AtomicInteger()
  private val ended = new java.util.concurrent.atomic.AtomicInteger()
  private val recs = ArrayBuffer.empty[TaskRec]

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    started.incrementAndGet()
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    group.filter(_.startsWith("batch-")).foreach { g =>
      val b = g.stripPrefix("batch-").toInt
      e.stageIds.foreach(stageBatch(_) = b)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = { ended.incrementAndGet(); () }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    for (b <- stageBatch.get(e.stageId); m <- Option(e.taskMetrics)) synchronized {
      recs += TaskRec(b, e.stageId, e.taskInfo.launchTime, e.taskInfo.finishTime,
        m.executorRunTime, m.executorDeserializeTime, m.resultSize)
    }

  def awaitIdle(timeoutMs: Long = 10000): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (ended.get() < started.get() && System.currentTimeMillis() < deadline) Thread.sleep(5)
  }

  def tasks: Seq[TaskRec] = synchronized(recs.toList)
}

/** Minimal JSON number formatting: non-finite values become 0. */
object Json {
  def num(v: Double): String = if (v.isNaN || v.isInfinite) "0" else java.lang.Double.toString(v)
}
