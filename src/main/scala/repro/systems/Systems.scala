package repro.systems

import repro.core.{EngineKind, Overhead}
import repro.sampling.SamplingMethod

/** The competing systems of §6.1 as engine configurations.
  *
  * GW and KK are emulated via the paper's own §C.4 methodology: the
  * execution paradigm (ASP walker-per-core / BSP one-step-per-superstep)
  * is reduced to a per-step framework overhead charged to the simulator;
  * the constants are calibrated so the BL : GW : KK : HG ordering of
  * Table 6 is reproduced.
  */
final case class SystemSpec(
    name: String,
    threads: Int,
    kind: EngineKind.Value,
    overhead: Overhead,
    sampling: Map[String, SamplingMethod.Value],
) {
  def supports(app: String): Boolean = sampling.contains(app)
  def samplingFor(app: String): SamplingMethod.Value = sampling(app)
}

object Systems {
  import SamplingMethod._

  val Threads = 10 // paper testbed: 10 physical cores, one worker each

  /** BL: serial naive baseline — NAIVE for PPR, ALIAS for everything else
    * (per-step alias construction for the dynamic walks, §6.1).
    */
  val BL: SystemSpec = SystemSpec("BL", 1, EngineKind.Sequential, Overhead(),
    Map("PPR" -> NAIVE, "DeepWalk" -> ALIAS, "Node2Vec" -> ALIAS, "MetaPath" -> ALIAS))

  /** HG: parallel homegrown — recommended sampler per algorithm (§4.3). */
  val HG: SystemSpec = SystemSpec("HG", Threads, EngineKind.Sequential, Overhead(),
    Map("PPR" -> NAIVE, "DeepWalk" -> ALIAS, "Node2Vec" -> OREJ, "MetaPath" -> ITS))

  /** GW: GraphWalker emulation — ASP walker management with heavy per-step
    * bookkeeping (walk encoding, bucket scheduling); unbiased RW only.
    */
  val GW: SystemSpec = SystemSpec("GW", Threads, EngineKind.Sequential,
    Overhead(instr = 36000, reads = 10),
    Map("PPR" -> NAIVE))

  /** KK: KnightKing emulation — BSP supersteps with per-step walker
    * message traffic; O-REJ sampling throughout; no labeled graphs.
    */
  val KK: SystemSpec = SystemSpec("KK", Threads, EngineKind.Sequential,
    Overhead(instr = 340, reads = 2),
    Map("PPR" -> OREJ, "DeepWalk" -> OREJ, "Node2Vec" -> OREJ))

  /** TRW: ThunderRW — HG's sampler choices plus step interleaving. */
  val TRW: SystemSpec = HG.copy(name = "TRW", kind = EngineKind.Interleaved)

  /** §C.4 variants: the GW/KK paradigms with step interleaving grafted on. */
  val GWsi: SystemSpec = GW.copy(name = "GW-si", kind = EngineKind.Interleaved)
  val KKsi: SystemSpec = KK.copy(name = "KK-si", kind = EngineKind.Interleaved)

  val all: Seq[SystemSpec] = Seq(BL, HG, GW, KK, TRW)
}
