package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.{SynthGraphs, SynthPoints}

/** The benchmark's inputs. Each workload turns a seed into a materialized
  * edge frame plus the local copies the output check and quality metrics
  * need; the program under test receives only the edge frame.
  *
  * Sizes are far below the paper-table settings: a TeraHAC round has a
  * fixed cost of 2-6 s on four vCPUs whatever the graph size, so the round
  * count, not the edge count, bounds how large an input fits in one
  * benchmark run. See perfbench/README.md for the rationale of each.
  */
final case class Input(
    edges: DataFrame,                          // symmetric (src, dst, w), persisted
    directedEdges: Long,
    local: Vector[(Long, Long, Double)],       // undirected, u < v
    vertices: Set[Long],
    labels: Map[Long, Long],                   // ground-truth cluster per vertex
    pairs: Vector[(Long, Long, Boolean)])      // labeled "same cluster?" pairs

/** @param n      input size (vertices or points) of the measured clusterings
  * @param warmN  size of the warm-up input: the same generator, smaller, so
  *               the warm-up compiles the same code paths for less time
  */
final case class Workload(name: String, eps: Double, t: Double, capEdges: Long,
                          n: Int, warmN: Int,
                          make: (SparkSession, Long, Int) => (DataFrame, Map[Long, Long],
                                                              Vector[(Long, Long, Boolean)])) {
  def generate(spark: SparkSession, seed: Long, size: Int): Input = {
    val (g, labels, pairs) = make(spark, seed, size)
    val edges = g.persist()
    val m = edges.count()
    val local = SynthGraphs.collectUndirected(edges)
    val vertices = local.iterator.flatMap { case (u, v, _) => Iterator(u, v) }.toSet
    Input(edges, m, local, vertices, labels, pairs)
  }
}

object Workloads {
  val WqClusterSize = 8
  val WqPairs = 4000
  val KnnK = 25

  // Each generator keeps its own default seed. The run seed draws new,
  // order-preserving vertex ids (and the labeled pairs): Spark's hash
  // partitioning, the partition and cluster ids all change, while every
  // id comparison in the algorithm, and so its merge sequence, stays put.
  // The round count of these small graphs moves with any change to the
  // graph or to id order (3 or 4 rounds on wq-t05, 4 to 6 on knn-full across
  // generator seeds; a shuffled numbering also moved knn-full from 4 to 5),
  // and one round more is a fixed ~3 s, +20-25% of `cluster_s`: a spread
  // across seeds no regression bound could absorb.

  /** Web-Query stand-in at the Table 3 setting (ε=0.1, t=0.05, cap 2^18). */
  val wqT05: Workload = Workload("wq-t05", eps = 0.1, t = 0.05, capEdges = 1L << 18,
    n = 600, warmN = 96,
    (spark, seed, n) => {
      val newId = spreadIds(n, seed)
      val g = relabel(spark, SynthGraphs.plantedGraph(spark, n.toLong, WqClusterSize), newId)
      val label = SynthGraphs.plantedLabel(WqClusterSize) _
      val labels = (0 until n).map(v => newId(v) -> label(v.toLong)).toMap
      val pairs = SynthGraphs.labeledPairs(n.toLong, WqClusterSize, WqPairs, seed = seed)
        .map { case (a, b, pos) => (newId(a.toInt), newId(b.toInt), pos) }
      (g, labels, pairs)
    })

  /** Full dendrogram (t=0) of the digits stand-in's k-NN graph. */
  val knnFull: Workload = Workload("knn-full", eps = 0.1, t = 0.0, capEdges = 1L << 20,
    n = 200, warmN = 50,
    (spark, seed, n) => {
      val newId = spreadIds(n, seed)
      val spec = SynthPoints.QualityDatasets.find(_.name == "digits").get.copy(n = n)
      val pts = SynthPoints.dataset(spec)
      val g = relabel(spark, SynthPoints.knnGraph(spark, pts, math.min(KnnK, n - 1)), newId)
      val labels = pts.map(p => newId(p.id.toInt) -> p.label).toMap
      // every pair is labeled: the set is small enough to score exactly
      val pairs = for (a <- pts; b <- pts if a.id < b.id)
        yield (newId(a.id.toInt), newId(b.id.toInt), a.label == b.label)
      (g, labels, pairs.toVector)
    })

  val all: Vector[Workload] = Vector(wqT05, knnFull)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))

  /** n distinct seeded random ids below 2^31, ascending: vertex v is renamed
    * to the v-th, which keeps the id order.
    */
  def spreadIds(n: Int, seed: Long): Array[Long] = {
    val rng = new scala.util.Random(seed)
    val ids = scala.collection.mutable.HashSet.empty[Long]
    while (ids.size < n) ids += rng.nextInt(Int.MaxValue).toLong
    ids.toArray.sorted
  }

  /** Renames vertex v of a (src, dst, w) frame to newId(v). */
  def relabel(spark: SparkSession, g: DataFrame, newId: Array[Long]): DataFrame = {
    import spark.implicits._
    val ids = newId.indices.map(i => (i.toLong, newId(i))).toDF("old", "new")
    g.join(ids.select(col("old").as("src"), col("new").as("s")), "src")
      .join(ids.select(col("old").as("dst"), col("new").as("d")), "dst")
      .select(col("s").as("src"), col("d").as("dst"), col("w"))
  }
}
