package repro.sampling

import org.scalatest.funsuite.AnyFunSuite

/** Exact-distribution tests for the generation phase of every sampler:
  * empirical frequencies must match the target distribution (chi-square
  * with a generous threshold; draws and seeds are deterministic).
  */
class SamplersSpec extends AnyFunSuite {

  private def chiSquare(counts: Array[Int], probs: Array[Double]): Double = {
    val n = counts.sum.toDouble
    var x2 = 0.0
    var i = 0
    while (i < counts.length) {
      val exp = probs(i) * n
      if (exp > 0) x2 += (counts(i) - exp) * (counts(i) - exp) / exp
      i += 1
    }
    x2
  }

  // 99.9% chi-square critical values are ~(df + 4*sqrt(2 df)); use a
  // conservative bound df + 6*sqrt(2 df) + 10.
  private def critical(df: Int): Double = df + 6 * math.sqrt(2.0 * df) + 10

  private def checkDistribution(probs: Array[Double], draw: java.util.SplittableRandom => Int,
                                n: Int = 200000, seed: Long = 1L): Unit = {
    val rng = new java.util.SplittableRandom(seed)
    val counts = new Array[Int](probs.length)
    var i = 0
    while (i < n) { counts(draw(rng)) += 1; i += 1 }
    val x2 = chiSquare(counts, probs)
    assert(x2 < critical(probs.length - 1),
      s"chi2=$x2 crit=${critical(probs.length - 1)} counts=${counts.mkString(",")}")
  }

  private val testDists: Seq[(String, Array[Double])] = Seq(
    "uniform-4" -> Array.fill(4)(0.25),
    "skewed-5" -> Array(0.5, 0.2, 0.15, 0.1, 0.05),
    "two-point" -> Array(0.9, 0.1),
    "many-16" -> (1 to 16).map(i => i.toDouble / (17 * 8)).toArray,
    "heavy-head" -> Array(0.97, 0.01, 0.01, 0.01),
  )

  // ---- NAIVE ----
  test("NAIVE matches the uniform distribution") {
    checkDistribution(Array.fill(8)(0.125), rng => StaticTables.Ref.naive(8, rng))
  }

  // ---- ITS ----
  for ((name, probs) <- testDists)
    test(s"ITS matches distribution $name") {
      val cdf = probs.scanLeft(0.0)(_ + _).tail
      checkDistribution(probs, rng => StaticTables.Ref.its(cdf, rng))
    }

  test("ITS handles unnormalised cumulative weights") {
    val weights = Array(3.0, 1.0, 6.0)
    val cdf = weights.scanLeft(0.0)(_ + _).tail
    checkDistribution(weights.map(_ / 10.0), rng => StaticTables.Ref.its(cdf, rng))
  }

  test("ITS returns the smallest index with r < cdf(i) (mass-zero entries skipped)") {
    val cdf = Array(0.5, 0.5, 1.0) // element 1 has zero mass
    val rng = new java.util.SplittableRandom(3L)
    (1 to 5000).foreach { _ =>
      val i = StaticTables.Ref.its(cdf, rng)
      assert(i != 1)
    }
  }

  // ---- ALIAS ----
  for ((name, probs) <- testDists)
    test(s"ALIAS matches distribution $name") {
      val sum = probs.sum
      val (h, s) = StaticTables.buildAlias(probs, sum)
      checkDistribution(probs, rng => StaticTables.Ref.alias(h, s, rng))
    }

  test("alias construction conserves probability mass exactly (50 random cases)") {
    val rnd = new java.util.SplittableRandom(17L)
    (1 to 50).foreach { _ =>
      val d = 1 + rnd.nextInt(40)
      val probs = Array.fill(d)(0.01 + rnd.nextDouble() * 10.0)
      val sum = probs.sum
      val (h, s) = StaticTables.buildAlias(probs, sum)
      // reconstruct per-element mass from the buckets
      val mass = new Array[Double](d)
      var i = 0
      while (i < d) {
        mass(i) += h(i)
        if (s(i) >= 0) mass(s(i)) += 1.0 - h(i)
        i += 1
      }
      i = 0
      while (i < d) {
        assert(math.abs(mass(i) - probs(i) * d / sum) < 1e-6,
          s"element $i mass ${mass(i)} expected ${probs(i) * d / sum}")
        i += 1
      }
    }
  }

  test("alias probabilities are within [0, 1] (30 random cases)") {
    val rnd = new java.util.SplittableRandom(23L)
    (1 to 30).foreach { _ =>
      val d = 1 + rnd.nextInt(25)
      val ws = Array.fill(d)(rnd.nextDouble() * 5.0 + 1e-6)
      val (h, _) = StaticTables.buildAlias(ws, ws.sum)
      assert(h.forall(p => p >= -1e-9 && p <= 1.0 + 1e-9))
    }
  }

  // ---- REJ ----
  for ((name, probs) <- testDists)
    test(s"REJ matches distribution $name") {
      val pStar = probs.max
      checkDistribution(probs, rng => StaticTables.Ref.rej(probs, pStar, rng))
    }

  test("O-REJ (loose upper bound) still matches the distribution") {
    val probs = Array(0.5, 0.2, 0.15, 0.1, 0.05)
    checkDistribution(probs, rng => StaticTables.Ref.rej(probs, 1.0, rng))
  }

  test("REJ acceptance rate approximates sum / (d * pStar)") {
    val probs = Array(0.4, 0.1, 0.1, 0.4)
    val pStar = 0.4
    val rng = new java.util.SplittableRandom(9L)
    var tries = 0
    val n = 50000
    (1 to n).foreach { _ =>
      var accepted = false
      while (!accepted) {
        tries += 1
        val x = rng.nextInt(probs.length)
        val y = rng.nextDouble() * pStar
        accepted = y < probs(x)
      }
    }
    val expected = probs.length * pStar / probs.sum // E[tries] = d*p*/sum
    assert(math.abs(tries.toDouble / n - expected) < 0.05 * expected)
  }
}
