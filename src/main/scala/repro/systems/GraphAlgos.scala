package repro.systems

import repro.graph.CSRGraph
import repro.memsim.{MemSim, SimLayout, SimStats}

/** Conventional single-operation graph workloads (BFS, SSSP) on the same
  * simulator, for the Table 1 comparison: frontier-based traversals scan
  * adjacency lists sequentially (hardware-prefetch friendly, high
  * bandwidth) and only the per-vertex state accesses are random — hence
  * much lower memory-bound than random walks.
  */
object GraphAlgos {

  /** Frontier BFS from `src`. Returns (levels reached, visited count). */
  def bfs(g: CSRGraph, sim: MemSim, src: Int): (Int, Int) = {
    val visited = new Array[Boolean](g.numVertices)
    var frontier = new Array[Int](1)
    frontier(0) = src
    visited(src) = true
    var visitedCount = 1
    var levels = 0
    while (frontier.nonEmpty) {
      val next = new scala.collection.mutable.ArrayBuffer[Int](frontier.length * 2)
      var i = 0
      while (i < frontier.length) {
        val u = frontier(i)
        sim.streamRead(SimLayout.frontier(i))
        sim.readOverlapped(SimLayout.offset(u)); sim.readOverlapped(SimLayout.offset(u + 1)); sim.compute(3)
        var e = g.edgeBegin(u)
        val end = g.offsets(u + 1)
        while (e < end) {
          sim.streamRead(SimLayout.neighbor(e))
          val v = g.neighbor(e)
          sim.readOverlapped(SimLayout.visited(v))
          sim.compute(4); sim.mispredict(0.15)
          if (!visited(v)) {
            visited(v) = true
            visitedCount += 1
            sim.streamWrite(SimLayout.frontier(i + next.length))
            next += v
          }
          e += 1
        }
        i += 1
      }
      frontier = next.toArray
      levels += 1
    }
    // `levels` counts processed frontiers (depths 0..ecc): eccentricity is one less.
    (levels - 1, visitedCount)
  }

  /** Frontier-based Bellman-Ford SSSP from `src` over edge weights.
    * Rounds capped (graphs are small-diameter).
    */
  def sssp(g: CSRGraph, sim: MemSim, src: Int, maxRounds: Int = 30): Array[Float] = {
    val dist = Array.fill(g.numVertices)(Float.MaxValue)
    dist(src) = 0f
    var frontier = new Array[Int](1)
    frontier(0) = src
    var round = 0
    while (frontier.nonEmpty && round < maxRounds) {
      val inNext = new Array[Boolean](g.numVertices)
      val next = new scala.collection.mutable.ArrayBuffer[Int](frontier.length)
      var i = 0
      while (i < frontier.length) {
        val u = frontier(i)
        sim.streamRead(SimLayout.frontier(i))
        sim.readOverlapped(SimLayout.offset(u)); sim.readOverlapped(SimLayout.offset(u + 1)); sim.compute(3)
        sim.readOverlapped(SimLayout.dist(u))
        val du = dist(u)
        var e = g.edgeBegin(u)
        val end = g.offsets(u + 1)
        while (e < end) {
          sim.streamRead(SimLayout.neighbor(e))
          sim.streamRead(SimLayout.weight(e))
          val v = g.neighbor(e)
          val w = g.weight(e)
          sim.readOverlapped(SimLayout.dist(v))
          sim.compute(5); sim.mispredict(0.2)
          if (du + w < dist(v)) {
            dist(v) = du + w
            sim.readOverlapped(SimLayout.dist(v)) // write-back
            if (!inNext(v)) { inNext(v) = true; next += v }
          }
          e += 1
        }
        i += 1
      }
      frontier = next.toArray
      round += 1
    }
    dist
  }

  def bfsStats(g: CSRGraph, src: Int, cfg: repro.memsim.MemConfig): SimStats = {
    val sim = new MemSim(cfg); bfs(g, sim, src); sim.snapshot()
  }

  def ssspStats(g: CSRGraph, src: Int, cfg: repro.memsim.MemConfig): SimStats = {
    val sim = new MemSim(cfg); sssp(g, sim, src); sim.snapshot()
  }
}
