package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Assembles a [[CSRGraph]] from a Spark edge DataFrame.
  *
  * The input must have columns (src INT, dst INT, weight FLOAT, label INT);
  * its rows are collected to the driver and counting-sorted there. With
  * `undirect = true` each pair is stored in both directions (the paper
  * represents undirected graphs this way). Neighbor lists are sorted by
  * destination, ties in input order, so Node2Vec's `IsNeighbor` binary
  * search works.
  */
object GraphBuilder {

  def fromEdges(df: DataFrame, numVertices: Int, name: String,
                undirect: Boolean = false): CSRGraph = {
    val required = Seq("src", "dst", "weight", "label")
    val missing = required.filterNot(df.columns.contains)
    require(missing.isEmpty, s"edge DataFrame needs columns ${required.mkString("(", ", ", ")")}; " +
      s"missing ${missing.mkString(", ")}")
    val rows = df.select(col("src").cast("int"), col("dst").cast("int"),
      col("weight").cast("float"), col("label").cast("int")).collect()

    // Input edge i runs srcs(i) -> dsts(i); an undirected pair's reverse follows it.
    val m = rows.length * (if (undirect) 2 else 1)
    val srcs = new Array[Int](m)
    val dsts = new Array[Int](m)
    val ws = new Array[Float](m)
    val ls = new Array[Int](m)
    var i = 0
    rows.foreach { r =>
      val s = r.getInt(0); val d = r.getInt(1)
      require(s >= 0 && s < numVertices && d >= 0 && d < numVertices,
        s"edge ($s,$d) outside [0,$numVertices)")
      srcs(i) = s; dsts(i) = d; ws(i) = r.getFloat(2); ls(i) = r.getInt(3)
      if (undirect) { i += 1; srcs(i) = d; dsts(i) = s; ws(i) = ws(i - 1); ls(i) = ls(i - 1) }
      i += 1
    }

    // Counting sort by src places the key (dst << 32 | i) in src's slice;
    // sorting each slice then orders it by dst, ties in input order.
    val offsets = new Array[Int](numVertices + 1)
    i = 0
    while (i < m) { offsets(srcs(i) + 1) += 1; i += 1 }
    var v = 0
    while (v < numVertices) { offsets(v + 1) += offsets(v); v += 1 }
    val cursor = java.util.Arrays.copyOf(offsets, numVertices)
    val keys = new Array[Long](m)
    i = 0
    while (i < m) {
      keys(cursor(srcs(i))) = (dsts(i).toLong << 32) | i
      cursor(srcs(i)) += 1; i += 1
    }
    v = 0
    while (v < numVertices) { java.util.Arrays.sort(keys, offsets(v), offsets(v + 1)); v += 1 }

    val nbrs = new Array[Int](m)
    val weights = new Array[Float](m)
    val labels = new Array[Int](m)
    i = 0
    while (i < m) {
      val e = keys(i).toInt // the low half: input index
      nbrs(i) = (keys(i) >>> 32).toInt; weights(i) = ws(e); labels(i) = ls(e)
      i += 1
    }
    new CSRGraph(name, numVertices, offsets, nbrs, weights, labels)
  }
}
