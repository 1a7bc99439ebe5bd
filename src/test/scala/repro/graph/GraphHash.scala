package repro.graph

import java.nio.ByteBuffer
import java.security.MessageDigest

/** A content hash that pins a built graph: the first 8 bytes, in hex, of
  * SHA-256 over `offsets`, `neighbors`, `weights` (as float bits) and
  * `labels`, each element written as 4 big-endian bytes, in that order.
  */
object GraphHash {

  def of(g: CSRGraph): String = {
    val md = MessageDigest.getInstance("SHA-256")
    def ints(n: Int)(at: Int => Int): Unit = {
      val b = ByteBuffer.allocate(4 * n) // big-endian by default
      var i = 0
      while (i < n) { b.putInt(at(i)); i += 1 }
      md.update(b.array())
    }
    ints(g.offsets.length)(g.offsets(_))
    ints(g.numEdges)(g.neighbors(_))
    ints(g.numEdges)(e => java.lang.Float.floatToRawIntBits(g.weights(e)))
    ints(g.numEdges)(g.labels(_))
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }
}
