package repro.graph

/** Compressed-sparse-row graph, the paper's storage format (§B).
  *
  * Vertices are `0 until numVertices`; `offsets` has `numVertices + 1`
  * entries; edge `e` (an index into `neighbors`) carries a weight and a
  * label, stored as parallel arrays exactly as in the paper. Both arrays
  * are required and have one entry per edge.
  */
final class CSRGraph(
    val name: String,
    val numVertices: Int,
    val offsets: Array[Int],
    val neighbors: Array[Int],
    val weights: Array[Float],
    val labels: Array[Int],
) extends Serializable {
  require(offsets.length == numVertices + 1, "offsets must have V+1 entries")
  require(weights.length == neighbors.length && labels.length == neighbors.length,
    s"weights (${weights.length}) and labels (${labels.length}) need one entry per edge (${neighbors.length})")

  def numEdges: Int = neighbors.length

  @inline def degree(v: Int): Int = offsets(v + 1) - offsets(v)
  @inline def edgeBegin(v: Int): Int = offsets(v)
  @inline def neighbor(e: Int): Int = neighbors(e)
  @inline def weight(e: Int): Float = weights(e)
  @inline def label(e: Int): Int = labels(e)

  /** Binary search: is `u` a neighbor of `v`? Neighbor lists are sorted by
    * the builder; used by Node2Vec's distance check. Each probed edge
    * index is passed to `probe`, in order, so callers can charge the
    * simulator per probe without allocating.
    */
  def isNeighbor(v: Int, u: Int, probe: Int => Unit = _ => ()): Boolean = {
    var lo = offsets(v)
    var hi = offsets(v + 1) - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      probe(mid)
      val nv = neighbors(mid)
      if (nv == u) return true
      else if (nv < u) lo = mid + 1
      else hi = mid - 1
    }
    false
  }

  /** Largest out-degree, scanned once at construction: engines size their
    * gather buffers by it on every slot.
    */
  val maxDegree: Int = {
    var m = 0; var v = 0
    while (v < numVertices) { val d = degree(v); if (d > m) m = d; v += 1 }
    m
  }

  def avgDegree: Double = numEdges.toDouble / numVertices

  /** Resident bytes of the CSR arrays (Table 5 "Memory" column). */
  def memoryBytes: Long =
    4L * offsets.length + 4L * neighbors.length +
      4L * weights.length + 4L * labels.length
}
