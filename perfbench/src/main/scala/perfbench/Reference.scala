package perfbench

import java.nio.file.{Files, Path}
import java.sql.DriverManager

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow

import org.duckdb.DuckDBConnection

import repro.baselines.SparkSqlJoin
import repro.core.hypergraph.Hypergraph

/** An order-independent fingerprint of a query result: the row count, and
  * the sum modulo the prime P = 2^31-1 of a per-row hash. The row hash is the
  * product (mod P) of one mixed factor per column, so it depends on every
  * value and on its column, and a sum of such products factorizes over a
  * join, which lets the reference aggregate instead of enumerating rows.
  * The same arithmetic is written once in Scala (for ADJ's output) and once
  * in SQL (for the DuckDB reference); every intermediate fits in a signed
  * 64-bit integer on both sides.
  */
final case class Checksum(rows: Long, sum: Long) {
  def +(o: Checksum): Checksum = Checksum(rows + o.rows, (sum + o.sum) % Checksum.P)
}

object Checksum {
  val P = 2147483647L

  def mix(col: Int, v: Long): Long = {
    var x = (v * 1000003L + 7919L * (col + 1)) % P
    x = x * x % P
    (x * 48271L + col + 1) % P % (P - 1) + 1
  }

  def rowHash(width: Int, value: Int => Long): Long = {
    var h = 1L
    var c = 0
    while (c < width) { h = h * mix(c, value(c)) % P; c += 1 }
    h
  }

  /** [[mix]] as a DuckDB SQL expression over the BIGINT expression `v`. */
  def sqlMix(col: Int, v: String): String = {
    val x0 = s"(($v * 1000003 + ${7919L * (col + 1)}) % $P)"
    s"((($x0 * $x0 % $P) * 48271 + ${col + 1}) % $P % ${P - 1} + 1)"
  }

  /** The product (mod P) of SQL factors. */
  def sqlProduct(factors: Seq[String]): String = factors.reduceLeft((acc, f) => s"($acc * $f % $P)")

  /** Consumes every row of an ADJ result (columns in attribute-id order). */
  def ofTuples(rdd: RDD[Array[Long]]): Checksum =
    rdd.mapPartitions { it =>
      var n = 0L; var s = 0L
      it.foreach { t => n += 1; s = (s + rowHash(t.length, t(_))) % P }
      Iterator(Checksum(n, s))
    }.collect().foldLeft(Checksum(0, 0))(_ + _)

  /** Consumes every row of a Catalyst result of `width` Long columns. */
  def ofRows(rdd: RDD[InternalRow], width: Int): Checksum =
    rdd.mapPartitions { it =>
      var n = 0L; var s = 0L
      it.foreach { r => n += 1; s = (s + rowHash(width, r.getLong(_))) % P }
      Iterator(Checksum(n, s))
    }.collect().foldLeft(Checksum(0, 0))(_ + _)
}

/** The correctness reference: the query's checksum computed by DuckDB over
  * the same edge relation, cached on disk per graph spec and query: the
  * edge set is a pure function of the spec (the seed only orders it).
  *
  * For the benchmark's queries DuckDB evaluates a factorized form, summing
  * the product-form row hash by eliminating one attribute at a time, which
  * takes seconds where the plain join takes up to half a minute. The forms
  * rely on the edge relation being symmetric, as every GraphData graph is;
  * `crossCheck` also runs the plain join text and requires the same answer.
  */
object Reference {
  import Checksum.{P, sqlMix => m}

  // Triangles (b, e, x) through each edge (b, e), and their sum over x as
  // attribute a (column 0): the factor every one of Q4-Q6 shares, since
  // R1(a,b) R5(e,a) R6(b,e) is their only use of a.
  private val triangles =
    s"""TR AS (SELECT be.src b, be.dst e, bx.dst x FROM edges be
       |  JOIN edges bx ON bx.src = be.src JOIN edges xe ON xe.src = bx.dst AND xe.dst = be.dst),
       |A AS (SELECT b, e, count(*) n, sum(${m(0, "x")}) % $P s FROM TR GROUP BY 1, 2)""".stripMargin

  // Joins A with the factor F(b, e) of the remaining attributes c, d.
  private def withA(factors: String): String =
    s"""WITH $triangles, $factors
       |SELECT coalesce(sum(A.n * F.n), 0),
       |       coalesce(sum(${m(1, "A.b")} * ${m(4, "A.e")} % $P * A.s % $P * F.s % $P) % $P, 0)
       |FROM A JOIN F ON A.b = F.b AND A.e = F.e""".stripMargin

  private val factorized: Map[String, String] = Map(
    // Q4: c, d on the path b-c-d-e.
    "Q4" -> withA(
      s"""C AS (SELECT bc.src b, cd.dst d, count(*) n, sum(${m(2, "bc.dst")}) % $P s
         |  FROM edges bc JOIN edges cd ON cd.src = bc.dst GROUP BY 1, 2),
         |F AS (SELECT A.b, A.e, sum(C.n) n, sum(C.s * ${m(3, "de.src")} % $P) % $P s
         |  FROM A JOIN edges de ON de.dst = A.e JOIN C ON C.b = A.b AND C.d = de.src GROUP BY 1, 2)""".stripMargin),
    // Q5: as Q4, with the chord b-d closing b-c-d into a triangle.
    "Q5" -> withA(
      s"""C AS (SELECT bd.src b, bd.dst d, count(*) n, sum(${m(2, "bc.dst")}) % $P s
         |  FROM edges bd JOIN edges bc ON bc.src = bd.src
         |  JOIN edges cd ON cd.src = bc.dst AND cd.dst = bd.dst GROUP BY 1, 2),
         |F AS (SELECT A.b, A.e, sum(C.n) n, sum(C.s * ${m(3, "C.d")} % $P) % $P s
         |  FROM A JOIN C ON C.b = A.b JOIN edges de ON de.src = C.d AND de.dst = A.e GROUP BY 1, 2)""".stripMargin),
    // Q6: b, c, d, e form a 4-clique, so c and d are adjacent apexes of
    // triangles on the edge (b, e).
    "Q6" -> withA(
      s"""F AS (SELECT t1.b, t1.e, count(*) n, sum(${m(2, "t1.x")} * ${m(3, "t2.x")} % $P) % $P s
         |  FROM TR t1 JOIN TR t2 ON t1.b = t2.b AND t1.e = t2.e
         |  JOIN edges cd ON cd.src = t1.x AND cd.dst = t2.x GROUP BY 1, 2)""".stripMargin),
  )

  private def plain(query: Hypergraph): String =
    s"""SELECT count(*), coalesce(sum(${Checksum.sqlProduct(query.attributes.indices.map(i => m(i, query.attributes(i))))}) % $P, 0)
       |FROM (${SparkSqlJoin.sql(query, "edges")}) t""".stripMargin

  /** @return the checksum, and the seconds spent computing it (0 on a cache hit) */
  def lookup(cacheDir: Path, key: String, queryName: String, query: Hypergraph,
             edges: => Array[(Long, Long)], crossCheck: Boolean): (Checksum, Double) = {
    val file = cacheDir.resolve(s"$key.ref")
    if (Files.exists(file) && !crossCheck) {
      val Array(n, s) = Files.readString(file).trim.split(" ")
      (Checksum(n.toLong, s.toLong), 0.0)
    } else {
      val t0  = System.nanoTime()
      val ref = compute(queryName, query, edges, cacheDir, crossCheck)
      Files.createDirectories(cacheDir)
      val tmp = Files.createTempFile(cacheDir, key, ".tmp")
      Files.writeString(tmp, s"${ref.rows} ${ref.sum}\n")
      Files.move(tmp, file, java.nio.file.StandardCopyOption.REPLACE_EXISTING, java.nio.file.StandardCopyOption.ATOMIC_MOVE)
      (ref, (System.nanoTime() - t0) / 1e9)
    }
  }

  private def compute(queryName: String, query: Hypergraph, edges: Array[(Long, Long)],
                      scratch: Path, crossCheck: Boolean): Checksum = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]
    try {
      val st = conn.createStatement()
      st.execute(s"SET threads = ${Runtime.getRuntime.availableProcessors}")
      st.execute("SET memory_limit = '3GB'")
      st.execute(s"SET temp_directory = '${scratch.resolve("duckdb-tmp")}'")
      st.execute("CREATE TABLE edges (src BIGINT NOT NULL, dst BIGINT NOT NULL)")
      val app = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, "edges")
      edges.foreach { case (s, d) => app.beginRow(); app.append(s); app.append(d); app.endRow() }
      app.close()
      def eval(sql: String): Checksum = {
        val rs = st.executeQuery(sql)
        rs.next()
        Checksum(rs.getLong(1), rs.getLong(2))
      }
      val ref = eval(factorized.getOrElse(queryName, plain(query)))
      if (crossCheck) {
        val direct = eval(plain(query))
        require(ref == direct, s"factorized reference $ref differs from the plain join's $direct")
      }
      ref
    } finally conn.close()
  }
}
