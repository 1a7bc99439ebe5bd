package repro.perfbench

import jdk.jfr.consumer.RecordingFile

import scala.jdk.CollectionConverters._

/** Host self-time split of a JFR recording by the package of each
  * execution sample's top frame, over the samples taken inside a window.
  *
  * Usage: `JfrShares <recording.jfr> <window start, epoch us> <window end, epoch us>`.
  * Prints `memsim core other samples` on one line.
  */
object JfrShares {
  def bucket(cls: String): String =
    if (cls.startsWith("repro.memsim.")) "memsim"
    else if (cls.startsWith("repro.core.") || cls.startsWith("repro.sampling.") ||
             cls.startsWith("repro.graph.")) "core"
    else "other"

  def main(args: Array[String]): Unit = {
    val Array(path, fromUs, toUs) = args
    val (from, to) = (fromUs.toDouble, toUs.toDouble)
    val counts = scala.collection.mutable.Map("memsim" -> 0L, "core" -> 0L, "other" -> 0L)
    for (e <- RecordingFile.readAllEvents(java.nio.file.Paths.get(path)).asScala
         if e.getEventType.getName == "jdk.ExecutionSample") {
      val t = e.getStartTime
      val us = t.getEpochSecond * 1e6 + t.getNano / 1e3
      val frames = Option(e.getStackTrace).map(_.getFrames).filter(!_.isEmpty)
      if (us >= from && us <= to && frames.isDefined) {
        val b = bucket(frames.get.get(0).getMethod.getType.getName)
        counts(b) += 1
      }
    }
    val total = math.max(1L, counts.values.sum).toDouble
    println(Seq(counts("memsim") / total, counts("core") / total, counts("other") / total,
      counts.values.sum.toDouble).map(Json.num).mkString(" "))
  }
}
