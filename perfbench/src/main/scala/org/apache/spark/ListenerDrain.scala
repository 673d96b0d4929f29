package org.apache.spark

/** Waits until every event posted so far has reached the listeners, so
  * counts read right after a call include that call's events and none leak
  * into the next one. `listenerBus` is `private[spark]`, hence this package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
