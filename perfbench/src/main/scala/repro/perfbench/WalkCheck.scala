package repro.perfbench

import repro.graph.CSRGraph

/** Validity of emitted walks against the CSR they were drawn from.
  *
  * A walk is valid when it starts at its source, every hop follows an edge
  * of the graph, and its length is within the app's bounds: at most `cap`
  * steps, and fewer than `minLen` only when it stopped at a vertex with no
  * out-edges.
  */
object WalkCheck {

  /** Is there an edge u -> v? Adjacency lists are sorted by GraphBuilder. */
  def hasEdge(g: CSRGraph, u: Int, v: Int): Boolean =
    u >= 0 && u < g.numVertices &&
      java.util.Arrays.binarySearch(g.neighbors, g.offsets(u), g.offsets(u + 1), v) >= 0

  def validWalk(g: CSRGraph, source: Int, path: Array[Int], minLen: Int, cap: Int): Boolean = {
    val len = path.length - 1
    if (len < 0 || path(0) != source || len > cap) return false
    var i = 0
    while (i < len) {
      if (!hasEdge(g, path(i), path(i + 1))) return false
      i += 1
    }
    len >= minLen || g.degree(path(len)) == 0
  }

  /** Failed-walk mask of one batch: `walks(i)` should start at `sources(i)`.
    * If the walk count or the sum of lengths disagrees with what the engine
    * reported, every walk of the batch is marked failed.
    */
  def failedMask(g: CSRGraph, sources: Array[Int], walks: Array[Array[Int]],
                 reportedSteps: Long, minLen: Int, cap: Int): Array[Boolean] = {
    if (walks.length != sources.length || walks.map(_.length - 1L).sum != reportedSteps)
      return Array.fill(sources.length)(true)
    Array.tabulate(walks.length)(i => !validWalk(g, sources(i), walks(i), minLen, cap))
  }

  /** Mark in `failed` every walk on which two runs of the same batch differ. */
  def markDifferent(failed: Array[Boolean], a: Array[Array[Int]], b: Array[Array[Int]]): Unit = {
    var i = 0
    while (i < failed.length) {
      if (i >= a.length || i >= b.length || !java.util.Arrays.equals(a(i), b(i))) failed(i) = true
      i += 1
    }
  }
}
