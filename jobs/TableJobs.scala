package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Tables

/** spark-submit entrypoints, one per reproduced paper table, e.g.
  * `spark-submit --class repro.jobs.Table6Job repro.jar [datasets...]`.
  */
object JobSpark {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  /** The dataset keys named on the command line, or every dataset. */
  def keys(args: Array[String]): Seq[String] =
    if (args.nonEmpty) args.toSeq else repro.graph.GraphGen.datasets.map(_.key)
}

object Table1Job {
  def main(args: Array[String]): Unit = { Tables.table1(JobSpark.session("table1")); () }
}

object Table2Job {
  def main(args: Array[String]): Unit = { Tables.table2(JobSpark.session("table2")); () }
}

object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table5")
    Tables.table5(spark, JobSpark.keys(args)); ()
  }
}

object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table6")
    Tables.table6(spark, JobSpark.keys(args)); ()
  }
}

object Table78Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table78")
    Tables.table7(spark); Tables.table8(spark); ()
  }
}

object Table9Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table9")
    Tables.table9(spark, JobSpark.keys(args)); ()
  }
}

object Table10Job {
  def main(args: Array[String]): Unit = { Tables.table10(JobSpark.session("table10")); () }
}

object Table1112Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table1112")
    Tables.table11(spark); Tables.table12(spark); ()
  }
}

object Table13Job {
  def main(args: Array[String]): Unit = { Tables.table13(JobSpark.session("table13")); () }
}

/** Runs every table in sequence (the full evaluation). */
object AllTablesJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("all-tables")
    Tables.table1(spark); Tables.table2(spark); Tables.table5(spark)
    Tables.table6(spark); Tables.table7(spark); Tables.table8(spark)
    Tables.table9(spark); Tables.table10(spark)
    Tables.table11(spark); Tables.table12(spark); Tables.table13(spark)
    ()
  }
}
