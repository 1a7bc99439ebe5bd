package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Apps, SequentialEngine, ThunderRW}
import repro.graph.CSRGraph
import repro.memsim.MemSim
import repro.sampling.SamplingMethod

class WalkCheckSpec extends AnyFunSuite {

  // 0-1, 0-2, 1-2, 2-3 stored in both directions; adjacency sorted by id.
  private val g = new CSRGraph("ring", 4,
    offsets = Array(0, 2, 4, 7, 8),
    neighbors = Array(1, 2, 0, 2, 0, 1, 3, 2),
    weights = Array.fill(8)(1.0f), labels = Array.fill(8)(0))

  private val n = 16
  private val sources = Array.tabulate(n)(_ % 4)
  private val res = new SequentialEngine(g, new Apps.DeepWalkUnbiased(10), SamplingMethod.NAIVE,
    null, new MemSim()).run(ThunderRW.makeWalkers(0 until n, sources, 7L))

  private def mask(walks: Array[Array[Int]], steps: Long = res.steps) =
    WalkCheck.failedMask(g, sources, walks, steps, minLen = 10, cap = 10)

  test("engine output passes the check") {
    assert(mask(res.walks).count(identity) == 0)
  }

  test("a hop that is not an edge fails exactly that walk") {
    val walks = res.walks.map(_.clone)
    walks(3)(5) = walks(3)(4) // the graph has no self-loops
    assert(!WalkCheck.hasEdge(g, walks(3)(4), walks(3)(5)))
    assert(mask(walks).toSeq == Seq.tabulate(n)(_ == 3))
  }

  test("a walk that does not start at its source fails") {
    val walks = res.walks.map(_.clone)
    walks(5)(0) = (sources(5) + 1) % 4
    assert(mask(walks).toSeq == Seq.tabulate(n)(_ == 5))
  }

  test("a step count that disagrees with the engine fails the whole batch") {
    val walks = res.walks.map(_.clone)
    walks(2) = walks(2).take(5)
    assert(mask(walks).forall(identity))
    assert(mask(res.walks, res.steps + 1).forall(identity))
  }

  test("walk length must lie within the app's bounds") {
    val zigzag = Array.tabulate(12)(_ % 2) // 11 steps along 0-1
    assert(WalkCheck.validWalk(g, 0, zigzag, minLen = 1, cap = 11))
    assert(!WalkCheck.validWalk(g, 0, zigzag, minLen = 1, cap = 10))
    assert(!WalkCheck.validWalk(g, 0, zigzag.take(3), minLen = 10, cap = 10))
  }

  test("walks that differ between two runs of a batch are marked failed") {
    val failed = new Array[Boolean](n)
    val other = res.walks.map(_.clone)
    other(7) = other(7).updated(3, (other(7)(3) + 1) % 4)
    WalkCheck.markDifferent(failed, res.walks, other)
    assert(failed.toSeq == Seq.tabulate(n)(_ == 7))
  }
}
