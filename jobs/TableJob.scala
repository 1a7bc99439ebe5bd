package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Tables
import repro.graph.GraphGen

/** spark-submit entrypoint for the reproduced paper tables:
  * `spark-submit --class repro.jobs.TableJob repro.jar <table|all> [datasets...]`,
  * e.g. `TableJob 6 lj tw`. Without dataset keys, Tables 5, 6 and 9 run on
  * every dataset.
  */
object TableJob {
  def main(args: Array[String]): Unit = {
    val which = args.headOption.getOrElse("")
    val run = Tables.runners.filter { case (name, _) => which == "all" || which == name }
    require(run.nonEmpty, s"unknown table '$which'; usage: TableJob <table|all> [datasets...], " +
      s"tables: ${Tables.runners.map(_._1).mkString(", ")}")
    val keys = if (args.length > 1) args.toSeq.tail else GraphGen.keys
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"table-$which")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    run.foreach { case (_, table) => table(spark, keys) }
  }
}
