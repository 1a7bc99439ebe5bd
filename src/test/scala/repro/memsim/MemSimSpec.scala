package repro.memsim

import org.scalatest.funsuite.AnyFunSuite

class MemSimSpec extends AnyFunSuite {
  private def fresh() = new MemSim(MemConfig())

  test("compute charges instructions at the configured IPC") {
    val m = fresh()
    m.compute(100)
    assert(m.instructions == 100)
    assert(math.abs(m.cycles - 100 / m.cfg.ipc) < 1e-9)
    assert(m.memStallCycles == 0)
  }

  test("cold read pays DRAM latency and counts a DRAM line") {
    val m = fresh()
    m.read(0L)
    assert(m.memStallCycles == m.cfg.latDram)
    assert(m.dramLines == 1)
  }

  test("repeat read hits L1: no stall") {
    val m = fresh()
    m.read(0L)
    val stall = m.memStallCycles
    m.read(0L)
    assert(m.memStallCycles == stall)
  }

  // Touch enough conflicting lines to evict line 0 from L1 set 0.
  private def evictLine0FromL1(m: MemSim): Unit = {
    val sets = m.cfg.l1Bytes / (64 * m.cfg.l1Ways)
    (1 to m.cfg.l1Ways + 1).foreach(i => m.read(sets.toLong * i * 64))
  }

  test("L2 hit costs latL2 after L1 eviction") {
    val m = fresh()
    m.read(0L)
    evictLine0FromL1(m)
    val before = m.memStallCycles
    m.read(0L)
    val stall = m.memStallCycles - before
    assert(stall == m.cfg.latL2, s"expected L2 latency, got $stall")
  }

  test("prefetch then immediate read pays residual, not full latency") {
    val m = fresh()
    m.prefetch(0L)
    m.compute(100) // 50 cycles of work
    val before = m.memStallCycles
    m.read(0L)
    val residual = m.memStallCycles - before
    assert(residual > 0 && residual < m.cfg.latDram)
    // within ~1 cycle: the prefetch/read instructions themselves advance time
    assert(math.abs(residual - (m.cfg.latDram - 100 / m.cfg.ipc)) < 1.01)
  }

  test("prefetch fully covered by compute: read is free") {
    val m = fresh()
    m.prefetch(0L)
    m.compute(2 * m.cfg.latDram * m.cfg.ipc.toInt)
    val before = m.memStallCycles
    m.read(0L)
    assert(m.memStallCycles == before)
  }

  test("MSHR saturation queues prefetches") {
    val m = fresh()
    val n = m.cfg.mshrs * 3
    (0 until n).foreach(i => m.prefetch((1000 + i) * 64L))
    // consume them immediately: later ones must stall longer than latDram would
    var total = 0.0
    (0 until n).foreach { i =>
      val b = m.memStallCycles
      m.read((1000 + i) * 64L)
      total += m.memStallCycles - b
    }
    // with only `mshrs` in flight, total residual must exceed a single window
    assert(total > m.cfg.latDram)
  }

  test("MSHR wait picks the right completion when more than mshrs fills are in flight") {
    val cfg = MemConfig(mshrs = 2)
    val lines = (0 until 6).map(i => (1000 + 37 * i) * 64L)
    // Five DRAM prefetches 0.5 cycles apart (one instruction each at IPC 2):
    // the 3rd waits for the 1st completion, the 4th for the 2nd, the 5th
    // for the 3rd — the window holds more than `mshrs` fills meanwhile.
    def issue(m: MemSim): Unit = lines.take(5).foreach(a => m.prefetch(a))
    val expected = Seq(200.5, 201.0, 400.5, 401.0, 600.5)
    for ((a, want) <- lines.zip(expected)) {
      val m = new MemSim(cfg)
      issue(m)
      val before = m.memStallCycles
      m.read(a) // at cycle 3.0, before any of them completes
      assert(m.memStallCycles - before == want - 3.0, s"line $a")
    }
    // Completed fills leave the window: at 402.0 only the 600.5 fill is
    // left, so a new prefetch starts at once.
    val m = new MemSim(cfg)
    issue(m)
    m.compute(2 * 399) // cycle 401.5
    m.prefetch(lines(5)) // cycle 402.0, ready 602.0
    val before = m.memStallCycles
    m.read(lines(5)) // cycle 402.5
    assert(m.memStallCycles - before == 199.5)
  }

  test("pending-prefetch table matches a HashMap under random put/find/remove") {
    for (seed <- 0 until 20) {
      val rng = new java.util.SplittableRandom(seed)
      val t = new PrefetchTable(initialCapacity = 2)
      val ref = scala.collection.mutable.HashMap.empty[Long, (Double, Int)]
      val keySpace = 50 + rng.nextInt(400)
      for (_ <- 0 until 5000) {
        val k = rng.nextInt(keySpace).toLong * (1 + rng.nextInt(3))
        rng.nextInt(3) match {
          case 0 | 1 =>
            val v = (rng.nextDouble(), rng.nextInt(7))
            t.put(k, v._1, v._2); ref(k) = v
          case _ =>
            val i = t.find(k)
            assert((i >= 0) == ref.contains(k))
            if (i >= 0) {
              assert((t.ready(i), t.extra(i)) == ref(k))
              t.removeAt(i); ref -= k
            }
        }
        assert(t.size == ref.size)
      }
      for ((k, v) <- ref) { val i = t.find(k); assert(i >= 0 && (t.ready(i), t.extra(i)) == v) }
      assert(t.capacity > 2)
    }
  }

  test("pending-prefetch table: deleting inside a run that wraps past the end keeps it reachable") {
    val t = new PrefetchTable(initialCapacity = 8)
    val last = t.capacity - 1
    val ks = Iterator.from(0).map(_.toLong).filter(t.home(_) == last).take(3).toSeq
    ks.zipWithIndex.foreach { case (k, i) => t.put(k, i.toDouble, i) } // slots 7, 0, 1
    assert(t.capacity == 8 && t.find(ks(1)) == 0 && t.find(ks(2)) == 1)
    t.removeAt(t.find(ks(0)))
    assert(t.find(ks(0)) == -1)
    assert(t.find(ks(1)) == last && t.ready(t.find(ks(1))) == 1.0)
    assert(t.find(ks(2)) == 0 && t.extra(t.find(ks(2))) == 2)
  }

  test("readOverlapped, streamWrite and an L2-served streamRead apply their own stall rules") {
    val m = fresh()
    m.readOverlapped(0L, mlp = 4)
    assert(m.memStallCycles == m.cfg.latDram / 4.0 && m.dramLines == 1)
    val w = fresh()
    w.streamWrite(0L)
    assert(w.memStallCycles == 0 && w.dramLines == 1 && w.instructions == 1)
    val s = fresh()
    s.read(0L)
    evictLine0FromL1(s)
    val (stall, lines) = (s.memStallCycles, s.dramLines)
    s.streamRead(0L)
    assert(s.memStallCycles - stall == math.min(s.cfg.latL2, s.cfg.streamStall))
    assert(s.dramLines == lines)
  }

  test("rejects latencies that do not rise from L2 to DRAM") {
    val e = intercept[IllegalArgumentException](new MemSim(MemConfig(latL3 = 200)))
    assert(e.getMessage.contains("latencies must rise from L2 to DRAM"))
  }

  test("rejects a degenerate ipc, frequency, pipeline width or associativity") {
    for ((cfg, msg) <- Seq(
        MemConfig(ipc = 0) -> "ipc 0.0 must be positive",
        MemConfig(ipc = -1) -> "ipc -1.0 must be positive",
        MemConfig(ipc = Double.NaN) -> "ipc NaN must be positive",
        MemConfig(freqGhz = 0) -> "freqGhz 0.0 must be positive",
        MemConfig(pipelineWidth = 0) -> "pipelineWidth 0 must be at least 1",
        MemConfig(l1Ways = 0) -> "associativity 0 must be at least 1",
        MemConfig(l2Ways = 0) -> "associativity 0 must be at least 1",
        MemConfig(l3Ways = 0) -> "associativity 0 must be at least 1")) {
      val e = intercept[IllegalArgumentException](new MemSim(cfg))
      assert(e.getMessage.contains(msg))
    }
  }

  test("streamRead charges the amortised stream stall, not full DRAM latency") {
    val m = fresh()
    m.streamRead(0L)
    assert(m.memStallCycles == m.cfg.streamStall)
    assert(m.dramLines == 1)
    m.streamRead(4L) // same line
    assert(m.memStallCycles == m.cfg.streamStall)
  }

  test("mispredict charges bad-speculation cycles") {
    val m = fresh()
    m.mispredict(0.5)
    assert(math.abs(m.badSpecCycles - 0.5 * m.cfg.mispredictPenalty) < 1e-9)
  }

  test("coreStall charges core-bound cycles") {
    val m = fresh()
    m.coreStall(40)
    assert(m.coreStallCycles == 40.0 && m.cycles == 40.0)
  }

  test("TMAM fractions sum to 1 and are non-negative") {
    val m = fresh()
    m.compute(500); m.read(0L); m.read(64L * 100); m.mispredict(1.0); m.coreStall(10)
    val t = m.snapshot().tmam
    val sum = t.frontEnd + t.badSpec + t.core + t.memory + t.retiring
    assert(math.abs(sum - 1.0) < 1e-9, s"sum=$sum")
    assert(Seq(t.frontEnd, t.badSpec, t.core, t.memory, t.retiring).forall(_ >= 0))
  }

  test("pure compute workload is mostly retiring + core/front-end") {
    val m = fresh()
    m.compute(10000)
    val t = m.snapshot().tmam
    assert(t.memory == 0.0)
    assert(t.retiring > 0.4)
  }

  test("pointer-chasing workload is memory bound") {
    val m = fresh()
    var i = 0
    while (i < 2000) { m.read((i * 977L) * 64); m.compute(4); i += 1 }
    val t = m.snapshot().tmam
    assert(t.memory > 0.5, s"memory=${t.memory}")
  }

  test("snapshot difference isolates a phase") {
    val m = fresh()
    m.compute(100)
    val a = m.snapshot()
    m.read(0L)
    val d = m.snapshot() - a
    assert(d.instructions == 1)
    assert(d.memStallCycles == m.cfg.latDram)
  }

  test("bandwidth accounting: bytes = 64 * dram lines") {
    val m = fresh()
    (0 until 100).foreach(i => m.read(i * 64L * 1000))
    val s = m.snapshot()
    assert(s.dramBytes == 100L * 64)
    assert(s.bandwidthGBs(1) > 0)
    assert(math.abs(s.bandwidthGBs(10) - 10 * s.bandwidthGBs(1)) < 1e-9)
  }

  test("NTA prefetch bypasses outer levels: reuse after L1 eviction goes to DRAM") {
    val m = fresh()
    m.prefetch(0L, PrefetchHint.NTA)
    m.compute(1000)
    m.read(0L) // consume
    evictLine0FromL1(m)
    val before = m.dramLines
    m.read(0L)
    assert(m.dramLines == before + 1, "NTA line must refetch from DRAM")
  }

  test("T0 prefetch fills L3: reuse after L1 eviction stays on-chip") {
    val m = fresh()
    m.prefetch(0L, PrefetchHint.T0)
    m.compute(1000)
    m.read(0L)
    evictLine0FromL1(m)
    val before = m.dramLines
    m.read(0L)
    assert(m.dramLines == before)
  }

  test("seconds derives from cycles and frequency") {
    val m = fresh()
    m.coreStall(m.cfg.freqGhz * 1e9) // one simulated second
    assert(math.abs(m.seconds - 1.0) < 1e-9)
  }
}
