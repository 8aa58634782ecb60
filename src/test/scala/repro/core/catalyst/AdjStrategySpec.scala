package repro.core.catalyst

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

import repro.{Oracle, SparkSpec}
import repro.baselines.SparkSqlJoin
import repro.core.{SparkTestData, TestHelpers}
import repro.core.hypergraph.QueryLibrary

class AdjStrategySpec extends SparkSpec {

  /** A session clone with the ADJ strategy installed. */
  private lazy val adjSession: SparkSession = {
    val s = spark.newSession()
    s.conf.set("spark.sql.autoBroadcastJoinThreshold", -1)
    s.conf.set("spark.repro.adj.samples", "40")
    s.experimental.extraStrategies = Seq(AdjStrategy(s))
    s
  }

  private def planString(df: org.apache.spark.sql.DataFrame): String =
    df.queryExecution.executedPlan.toString

  test("a 3-way equi-join is planned as AdjJoin") {
    val g = TestHelpers.randomGraph(nodes = 14, edges = 30, seed = 61)
    SparkTestData.graphDf(adjSession, g).createOrReplaceTempView("edges_cat")
    val df = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q1, "edges_cat"))
    assert(planString(df).contains("AdjJoin"), planString(df))
  }

  test("the ADJ-planned triangle query returns oracle-correct results") {
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 62)
    val gdf = SparkTestData.graphDf(adjSession, g)
    gdf.createOrReplaceTempView("edges_cat2")
    val df = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q1, "edges_cat2"))
    Oracle.assertEquivalent(df, SparkSqlJoin.sql(QueryLibrary.q1, "e"), "e" -> gdf)
  }

  test("the ADJ-planned Q4 query returns oracle-correct results") {
    val g = TestHelpers.randomGraph(nodes = 14, edges = 32, seed = 63)
    val gdf = SparkTestData.graphDf(adjSession, g)
    gdf.createOrReplaceTempView("edges_cat3")
    val df = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q4, "edges_cat3"))
    assert(planString(df).contains("AdjJoin"), planString(df))
    Oracle.assertEquivalent(df, SparkSqlJoin.sql(QueryLibrary.q4, "e"), "e" -> gdf)
  }

  test("binary joins are left to the default planner") {
    val g = TestHelpers.randomGraph(nodes = 12, edges = 24, seed = 64)
    SparkTestData.graphDf(adjSession, g).createOrReplaceTempView("edges_cat4")
    val df = adjSession.sql(
      "SELECT a.src, a.dst, b.dst AS d2 FROM edges_cat4 a JOIN edges_cat4 b ON a.dst = b.src")
    assert(!planString(df).contains("AdjJoin"))
  }

  test("the strategy can be disabled by configuration") {
    val g = TestHelpers.randomGraph(nodes = 12, edges = 24, seed = 65)
    SparkTestData.graphDf(adjSession, g).createOrReplaceTempView("edges_cat5")
    adjSession.conf.set("spark.repro.adj.enabled", "false")
    try {
      val df = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q1, "edges_cat5"))
      assert(!planString(df).contains("AdjJoin"))
    } finally adjSession.conf.set("spark.repro.adj.enabled", "true")
  }

  test("non-Long columns fall back to the default planner") {
    val g = TestHelpers.randomGraph(nodes = 10, edges = 20, seed = 66)
    val gdf = SparkTestData.graphDf(adjSession, g)
      .selectExpr("CAST(src AS INT) AS src", "CAST(dst AS INT) AS dst")
    gdf.createOrReplaceTempView("edges_cat6")
    val df = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q1, "edges_cat6"))
    assert(!planString(df).contains("AdjJoin"))
  }

  test("communication-first strategy config is honored") {
    val g = TestHelpers.randomGraph(nodes = 12, edges = 26, seed = 67)
    val gdf = SparkTestData.graphDf(adjSession, g)
    gdf.createOrReplaceTempView("edges_cat7")
    adjSession.conf.set("spark.repro.adj.strategy", "communication-first")
    try {
      val df = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q1, "edges_cat7"))
      Oracle.assertEquivalent(df, SparkSqlJoin.sql(QueryLibrary.q1, "e"), "e" -> gdf)
    } finally adjSession.conf.set("spark.repro.adj.strategy", "co-optimization")
  }

  private val nullableEdges = StructType(Seq(StructField("src", LongType), StructField("dst", LongType)))

  test("null join keys match no row, as in vanilla Spark") {
    val rows = Seq(Row(1L, 2L), Row(2L, null), Row(null, 1L))
    adjSession.createDataFrame(spark.sparkContext.parallelize(rows, 2), nullableEdges)
      .createOrReplaceTempView("edges_null")
    // The triangle as a directed 3-cycle: reading null as 0 would close
    // 1 -> 2 -> 0 -> 1.
    val sql = "SELECT e0.src AS a, e1.src AS b, e2.src AS c FROM edges_null e0, edges_null e1, edges_null e2 " +
      "WHERE e0.dst = e1.src AND e1.dst = e2.src AND e2.dst = e0.src"
    // Without constraint propagation Catalyst adds no isnotnull filters, so
    // the nulls reach the operator.
    adjSession.conf.set("spark.sql.constraintPropagation.enabled", "false")
    try {
      val df = adjSession.sql(sql)
      assert(planString(df).contains("AdjJoin"), planString(df))
      assert(df.collect().isEmpty)
      adjSession.conf.set("spark.repro.adj.enabled", "false")
      assert(adjSession.sql(sql).collect().isEmpty)
    } finally {
      adjSession.conf.set("spark.repro.adj.enabled", "true")
      adjSession.conf.set("spark.sql.constraintPropagation.enabled", "true")
    }
  }

  test("a nullable column bound by one leaf falls back to the default planner") {
    val g = TestHelpers.randomGraph(nodes = 12, edges = 24, seed = 68)
    val gdf = SparkTestData.graphDf(adjSession, g)
    gdf.createOrReplaceTempView("edges_cat8")
    adjSession.createDataFrame(gdf.rdd, nullableEdges).createOrReplaceTempView("edges_cat9")
    // Q8 is a path: its end attributes are bound by one leaf each.
    assert(planString(adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q8, "edges_cat8"))).contains("AdjJoin"))
    assert(!planString(adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q8, "edges_cat9"))).contains("AdjJoin"))
  }

  test("numOutputRows counts the rows AdjJoinExec delivers") {
    val g = TestHelpers.randomGraph(nodes = 14, edges = 32, seed = 69)
    SparkTestData.graphDf(adjSession, g).createOrReplaceTempView("edges_cat10")
    val df   = adjSession.sql(SparkSqlJoin.sql(QueryLibrary.q4, "edges_cat10"))
    val rows = df.collect().length
    val exec = df.queryExecution.executedPlan.collectFirst { case a: AdjJoinExec => a }
    assert(exec.isDefined, planString(df))
    assert(rows > 0)
    assert(exec.get.metrics("numOutputRows").value == rows)
  }
}
