package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._

/** Assembles a [[CSRGraph]] from a Spark edge DataFrame.
  *
  * The input must have columns (src INT, dst INT, weight FLOAT, label INT).
  * Each partition packs its rows into four primitive arrays; the driver
  * collects them in partition order (the order `collect()` would give) and
  * counting-sorts the edges there. With `undirect = true` each pair is
  * stored in both directions (the paper represents undirected graphs this
  * way). Neighbor lists are sorted by destination, ties in input order, so
  * Node2Vec's `IsNeighbor` binary search works.
  */
object GraphBuilder {

  def fromEdges(df: DataFrame, numVertices: Int, name: String,
                undirect: Boolean = false): CSRGraph = {
    val required = Seq("src", "dst", "weight", "label")
    val missing = required.filterNot(df.columns.contains)
    require(missing.isEmpty, s"edge DataFrame needs columns ${required.mkString("(", ", ", ")")}; " +
      s"missing ${missing.mkString(", ")}")
    val rows = df.select(col("src").cast("int"), col("dst").cast("int"),
      col("weight").cast("float"), col("label").cast("int")).queryExecution.toRdd
    val parts = rows.sparkContext.runJob(rows, EdgeColumns.pack _)
    val nulls = parts.map(_.nulls).sum
    require(nulls == 0, s"edge DataFrame has $nulls rows with a null src, dst, weight or label")

    // Input edge i runs srcs(i) -> dsts(i); an undirected pair's reverse follows it.
    val m = parts.map(_.src.length).sum * (if (undirect) 2 else 1)
    val srcs = new Array[Int](m)
    val dsts = new Array[Int](m)
    val ws = new Array[Float](m)
    val ls = new Array[Int](m)
    var i = 0
    parts.foreach { p =>
      var j = 0
      while (j < p.src.length) {
        val s = p.src(j); val d = p.dst(j)
        require(s >= 0 && s < numVertices && d >= 0 && d < numVertices,
          s"edge ($s,$d) outside [0,$numVertices)")
        srcs(i) = s; dsts(i) = d; ws(i) = p.weight(j); ls(i) = p.label(j)
        if (undirect) { i += 1; srcs(i) = d; dsts(i) = s; ws(i) = ws(i - 1); ls(i) = ls(i - 1) }
        i += 1; j += 1
      }
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

/** One partition's edges as primitive columns, in row order, and the
  * number of its rows with a null field (whose slots hold 0).
  */
private[graph] final class EdgeColumns(val src: Array[Int], val dst: Array[Int],
    val weight: Array[Float], val label: Array[Int], val nulls: Int) extends Serializable

private[graph] object EdgeColumns {

  /** Packs a partition of (src, dst, weight, label) rows, reading each row
    * as it arrives: the iterator reuses the row object.
    */
  def pack(rows: Iterator[InternalRow]): EdgeColumns = {
    var src = new Array[Int](1024)
    var dst = new Array[Int](1024)
    var weight = new Array[Float](1024)
    var label = new Array[Int](1024)
    var n = 0
    var nulls = 0
    while (rows.hasNext) {
      val r = rows.next()
      if (n == src.length) {
        src = java.util.Arrays.copyOf(src, 2 * n); dst = java.util.Arrays.copyOf(dst, 2 * n)
        weight = java.util.Arrays.copyOf(weight, 2 * n); label = java.util.Arrays.copyOf(label, 2 * n)
      }
      if (r.anyNull) nulls += 1
      src(n) = r.getInt(0); dst(n) = r.getInt(1); weight(n) = r.getFloat(2); label(n) = r.getInt(3)
      n += 1
    }
    new EdgeColumns(java.util.Arrays.copyOf(src, n), java.util.Arrays.copyOf(dst, n),
      java.util.Arrays.copyOf(weight, n), java.util.Arrays.copyOf(label, n), nulls)
  }
}
