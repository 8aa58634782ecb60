package org.apache.spark

/** Lets a test wait until every listener event posted so far has been
  * delivered. (The listener bus is private to Spark's own package.)
  */
object TestListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
