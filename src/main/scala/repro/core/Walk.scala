package repro.core

import repro.memsim.{MemSim, SimLayout}

/** One random-walk query (the paper's walker Q).
  *
  * Each walker owns a `SplittableRandom` seeded by its query id, so the
  * sequence of draws — and therefore the walk — is independent of which
  * engine runs it and in what interleaving order. The engine-equivalence
  * tests rely on this.
  */
final class Walker(val id: Int, source: Int, seedBase: Long) {
  val rng = new java.util.SplittableRandom(seedBase ^ (id * 0x9E3779B97F4A7C15L))
  var cur: Int = source
  var prev: Int = -1
  var length: Int = 0 // steps taken; the walk has length+1 vertices
  // Unboxed, growable: vertex i of the walk is visited(i) for i <= length.
  private var visited = new Array[Int](16)
  visited(0) = source
  var done: Boolean = false

  /** The engine moves the walker along edge `e` to vertex `v`. */
  def move(v: Int): Unit = {
    prev = cur
    cur = v
    length += 1
    if (length == visited.length) visited = java.util.Arrays.copyOf(visited, 2 * length)
    visited(length) = v
  }

  /** The vertex sequence so far, source first: a fresh copy of
    * `length + 1` vertices.
    */
  def path: Array[Int] = java.util.Arrays.copyOf(visited, length + 1)
}

/** Charging context handed to user-defined functions: dispatches reads as
  * streaming (inside Gather's sequential scan) or dependent (random).
  */
final class SimCtx(val sim: MemSim) {
  var streaming: Boolean = false
  @inline def read(addr: Long): Unit =
    if (streaming) sim.streamRead(addr) else sim.read(addr)
  @inline def compute(n: Int): Unit = sim.compute(n)
  @inline def mispredict(p: Double): Unit = sim.mispredict(p)

  /** Charge for one probe of [[repro.graph.CSRGraph.isNeighbor]]: load the
    * neighbor id, compare, and a branch mispredicted 12% of the time.
    */
  val neighborProbe: Int => Unit = e => {
    read(SimLayout.neighbor(e))
    compute(3)
    mispredict(0.12)
  }
}
