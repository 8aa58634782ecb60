package org.apache.spark

/** Lets the benchmark wait until every listener event posted so far has been
  * delivered, so per-query listener figures are complete when they are read.
  * (The listener bus is private to Spark's own package.)
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
