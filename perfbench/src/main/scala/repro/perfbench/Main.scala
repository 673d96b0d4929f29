package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import repro.core.{Dendrogram, TeraHAC}
import repro.core.model.FpSlack
import repro.exp.QualityExperiment
import repro.quality.Metrics

final case class Metric(name: String, value: Double, unit: String)

/** One checked clustering: its result, dendrogram, wall seconds and
  * empirical approximation ratio. */
final case class Run(res: TeraHAC.Result, d: Dendrogram, seconds: Double, ratio: Double)

/** The TeraHAC benchmark: one workload, one seed, one JVM.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
  * }}}
  *
  * Set-up (Spark session, input generation, one untimed warm-up clustering
  * of a smaller input from the same generator) is timed on its own, as the
  * wall time up to the first timed clustering. With `--trace 0` it then
  * clusters the input again and again for `--seconds`, at least once,
  * checking every output, and prints the end-to-end
  * metrics; with `--trace 1` it makes one traced clustering between two
  * untraced ones, replays round 1 layer by layer and prints the per-layer
  * metrics. The last stdout line is the JSON result.
  */
object Main {
  val ShufflePartitions = 4
  val SettleMaxMs = 5000L
  val JitQuietMs = 500L
  val MaxRounds = 100
  val RecallPrecision = 0.9

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        traceOut: Option[String])

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case x => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $x")
    }
    val secs = need("seconds").toDouble
    require(secs > 0, "--seconds must be positive")
    Opts(need("workload"), need("seed").toLong, secs, trace, kv.get("trace-out"))
  }

  private def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def session(cores: Int): SparkSession = {
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("terahac-perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.ui.showConsoleProgress", false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark
  }

  /** One clustering, input frame to dendrogram in hand. */
  def cluster(spark: SparkSession, w: Workload, in: Input): (TeraHAC.Result, Dendrogram) = {
    val res = TeraHAC.run(spark, in.edges, w.eps, w.t, w.capEdges, maxRounds = MaxRounds)
    (res, res.toLocal)
  }

  /** Output check; returns the empirical approximation ratio. */
  def check(w: Workload, in: Input, res: TeraHAC.Result, d: Dendrogram): Double = {
    d.validate()
    require(d.leafSet == in.vertices,
      s"leaves (${d.leafSet.size}) differ from the input vertices (${in.vertices.size})")
    val merges = res.stats.map(_.merges).sum
    require(merges == d.numMerges, s"rounds report $merges merges, dendrogram has ${d.numMerges}")
    val ratio = Metrics.empiricalApproxRatio(in.local, d)
    if (w.t == 0)
      require(ratio <= (1 + w.eps) * (1 + FpSlack), s"approximation ratio $ratio above 1+eps")
    ratio
  }

  /** Best flat ARI against the labels, and the best recall over the labeled
    * pairs among flat clusterings with precision at least [[RecallPrecision]].
    */
  def quality(w: Workload, in: Input, d: Dendrogram): (Double, Double) = {
    val labels = in.labels.filter { case (v, _) => d.leafSet.contains(v) }
    val (ari, _) = QualityExperiment.bestFlat(d, labels)
    val recalls = QualityExperiment.ThresholdGrid.filter(_ >= w.t).flatMap { th =>
      val (p, r) = Metrics.precisionRecall(d.flatten(th), in.pairs)
      if (p >= RecallPrecision) Some(r) else None
    }
    (ari, if (recalls.isEmpty) 0.0 else recalls.max)
  }

  /** Heap still in use after a full collection, in bytes: the sum of the
    * heap pools' collection usage right after `System.gc()`.
    */
  def postGcHeap(): Long = {
    System.gc()
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP)
      .map(p => Option(p.getCollectionUsage).map(_.getUsed).getOrElse(0L)).sum
  }

  /** Lets the JVM settle before a timed clustering: a full collection, then
    * a wait of at most [[SettleMaxMs]] until the JIT compiler has finished
    * nothing for [[JitQuietMs]]. Compilations queued by the previous
    * clustering would otherwise run on the cores the timed one needs.
    */
  def settle(): Unit = {
    System.gc()
    val jit = ManagementFactory.getCompilationMXBean
    val deadline = System.nanoTime() + SettleMaxMs * 1000000L
    var last = jit.getTotalCompilationTime
    var quietMs = 0L
    while (quietMs < JitQuietMs && System.nanoTime() < deadline) {
      Thread.sleep(50)
      val now = jit.getTotalCompilationTime
      if (now == last) quietMs += 50 else { quietMs = 0; last = now }
    }
  }

  def main(args: Array[String]): Unit = {
    val start = System.nanoTime()
    val opts = parse(args)
    val w = Workloads.byName(opts.workload)
    val cores = Runtime.getRuntime.availableProcessors

    val (spark, sessionS) = seconds(session(cores))
    val conf = spark.conf
    println(s"# perfbench workload=${w.name} seed=${opts.seed} seconds=${opts.seconds} " +
      s"trace=${if (opts.trace) 1 else 0}")
    println(s"# spark=${spark.version} master=${spark.sparkContext.master} " +
      s"spark.sql.shuffle.partitions=${conf.get("spark.sql.shuffle.partitions")} " +
      s"spark.sql.autoBroadcastJoinThreshold=${conf.get("spark.sql.autoBroadcastJoinThreshold")} " +
      s"spark.sql.adaptive.enabled=${conf.get("spark.sql.adaptive.enabled")} " +
      s"spark.ui.enabled=${spark.sparkContext.getConf.get("spark.ui.enabled")}")
    println(s"# jvm=${System.getProperty("java.vm.name")} ${System.getProperty("java.version")} " +
      s"max_heap_mb=${Runtime.getRuntime.maxMemory / (1L << 20)} cores=$cores")
    println(s"# workload eps=${w.eps} t=${w.t} cap=${w.capEdges}")

    // --- set-up: input generation + warm-up, up to the first timed clustering
    val (in, genS) = seconds(w.generate(spark, opts.seed, w.n))
    val (_, warmS) = seconds {
      val small = w.generate(spark, opts.seed, w.warmN)
      cluster(spark, w, small)
      small.edges.unpersist(blocking = true)
    }
    val (_, settleS) = seconds(settle())
    val setupS = (System.nanoTime() - start) / 1e9
    println(f"# input vertices=${in.vertices.size} directed_edges=${in.directedEdges} " +
      f"session_s=$sessionS%.3f gen_s=$genS%.3f warmup_s=$warmS%.3f settle_s=$settleS%.3f " +
      f"setup_s=$setupS%.3f")

    var attempted = 0
    var failed = 0
    /** Runs one clustering and its output check; None when either fails. */
    def attempt(body: => (TeraHAC.Result, Dendrogram)): Option[Run] = {
      attempted += 1
      try {
        val ((res, d), s) = seconds(body)
        Some(Run(res, d, s, check(w, in, res, d)))
      } catch {
        case e: Exception =>
          failed += 1
          println(s"# run $attempted FAILED: $e")
          None
      }
    }

    val metrics =
      if (!opts.trace) endToEnd(spark, w, in, opts, setupS, attempt)
      else traced(spark, w, in, opts, attempt)

    val result = Json.obj(
      "correct" -> Json.bool(failed == 0),
      "attempted" -> Json.num(attempted.toLong),
      "failed" -> Json.num(failed.toLong),
      "metrics" -> Json.obj(metrics.map(m =>
        m.name -> Json.obj("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))): _*))
    spark.stop()
    for (m <- metrics) println(f"# ${m.name}%-42s ${m.value}%16.6f ${m.unit}")
    println(result)
  }

  type Attempt = (=> (TeraHAC.Result, Dendrogram)) => Option[Run]

  def endToEnd(spark: SparkSession, w: Workload, in: Input, opts: Opts, setupS: Double,
               attempt: Attempt): Vector[Metric] = {
    val runs = Vector.newBuilder[Run]
    var peakHeap = 0L
    val deadline = System.nanoTime() + (opts.seconds * 1e9).toLong
    var n = 0
    do {
      // the first timed clustering follows the settle that ends the set-up
      val settleS = if (n == 0) 0.0 else seconds(settle())._2
      val r = attempt(cluster(spark, w, in))
      r.foreach(x => println(f"# timed run: settle_s=$settleS%.3f cluster_s=${x.seconds}%.3f round_ms=" +
        x.res.stats.map(_.millis).mkString(",")))
      // outside the timed span, while the run's result is still referenced
      peakHeap = math.max(peakHeap, postGcHeap())
      runs ++= r
      n += 1
    } while (System.nanoTime() < deadline)
    val ok = runs.result()
    if (ok.isEmpty) return Vector(Metric("setup_s", setupS, "s"))
    val ts = ok.map(_.seconds)
    val last = ok.last
    val ((ari, recall), qualityS) = seconds(quality(w, in, last.d))
    val clusterS = median(ts)
    println(s"# timed runs=${ts.size} cluster_s=${ts.map(x => f"$x%.3f").mkString(",")}")
    // Bounded by 1+eps (and checked) only for a full dendrogram; with t > 0
    // late low-similarity merges may be far from greedy, so it is shown, not gated.
    println(f"# approx_ratio=${last.ratio} quality_s=$qualityS%.3f")
    Vector(
      Metric("cluster_s", clusterS, "s"),
      Metric("edges_per_s", in.directedEdges / clusterS, "1/s"),
      Metric("rounds", last.res.rounds, "count"),
      Metric("setup_s", setupS, "s"),
      Metric("ari", ari, "ratio"),
      Metric("recall_at_p90", recall, "ratio"),
      Metric("peak_heap_mb", peakHeap / 1e6, "MB"))
  }

  def traced(spark: SparkSession, w: Workload, in: Input, opts: Opts,
             attempt: Attempt): Vector[Metric] = {
    val before = attempt(cluster(spark, w, in)).map(_.seconds)
    val sc = spark.sparkContext
    val counters = SparkCounters.register(sc)
    val tr = new Tracer(counters)
    val cores = sc.defaultParallelism

    var clusterSp: Tracer.Span = null
    var collectS = 0.0
    val run = attempt {
      val (rd, sp) = tr.span("cluster") {
        val (res, _) = tr.span("TeraHAC.run")(
          TeraHAC.run(spark, in.edges, w.eps, w.t, w.capEdges, maxRounds = MaxRounds))
        val (d, csp) = tr.span("Dendrogram.collect")(res.toLocal)
        collectS = csp.seconds
        (res, d)
      }
      clusterSp = sp
      rd
    }
    sc.removeSparkListener(counters)
    // A failed traced clustering leaves nothing to report; the result line
    // still shows it as failed.
    if (run.isEmpty) return Vector.empty
    val Run(res, d, _, _) = run.get
    // Untraced clusterings on both sides of the traced one, so JIT warming
    // during the run does not bias the overhead either way.
    val after = attempt(cluster(spark, w, in)).map(_.seconds)
    sc.addSparkListener(counters)
    val layers = tr.span("round1")(Round1.replay(spark, w, in, tr))._1
    val (_, flatSp) = tr.span("Dendrogram.flatten")(
      QualityExperiment.ThresholdGrid.foreach(d.flatten))
    sc.removeSparkListener(counters)

    val untraced = (before ++ after).toSeq
    val untracedS = if (untraced.isEmpty) clusterSp.seconds else untraced.sum / untraced.size
    val eng = clusterSp.delta
    val wallS = clusterSp.seconds
    val idleS = wallS - counters.busyMs(clusterSp.before, clusterSp.after) / 1000.0
    val floor = res.stats.minBy(_.nDirectedEdges)
    val r1 = res.stats.head

    println("# spans (name, parent, seconds, self seconds, jobs, shuffle MB)")
    for (sp <- tr.spans) {
      val parent = tr.spans.find(_.id == sp.parent).map(_.name).getOrElse("-")
      println(f"#   ${sp.name}%-30s ${parent}%-14s ${sp.seconds}%9.3f ${tr.selfSeconds(sp)}%9.3f " +
        f"${sp.delta.jobs}%6d ${sp.delta.shuffleMb}%9.3f")
    }
    opts.traceOut.foreach { path =>
      java.nio.file.Files.writeString(java.nio.file.Paths.get(path), tr.toJson(w.name, opts.seed))
      println(s"# spans written to $path")
    }

    Vector(
      Metric("TeraHAC.round_floor_s", floor.millis / 1000.0, "s"),
      Metric("TeraHAC.round1_s", r1.millis / 1000.0, "s"),
      Metric("TeraHAC.round1_merge_frac", r1.merges.toDouble / r1.nVertices, "ratio"),
      Metric("TeraHAC.stalled_rounds", res.stats.count(_.merges == 0), "count"),
      Metric("spark.jobs", eng.jobs, "count"),
      Metric("spark.stages", eng.stages, "count"),
      Metric("spark.tasks", eng.tasks, "count"),
      Metric("spark.jobs_per_round", eng.jobs.toDouble / res.rounds, "count"),
      Metric("spark.shuffle_write_mb", eng.shuffleMb, "MB"),
      Metric("spark.shuffle_records", eng.shuffleRecords, "count"),
      Metric("spark.task_run_s", eng.runMs / 1000.0, "s"),
      Metric("spark.task_cpu_s", eng.cpuNs / 1e9, "s"),
      Metric("spark.gc_s", eng.gcMs / 1000.0, "s"),
      Metric("spark.busy_frac", eng.runMs / 1000.0 / (wallS * cores), "ratio"),
      Metric("spark.idle_s", idleS, "s")) ++
    layers ++
    Vector(
      Metric("Dendrogram.collect_s", collectS, "s"),
      Metric("Dendrogram.flatten_s", flatSp.seconds, "s"),
      Metric("Dendrogram.nodes", d.nodes.size, "count"),
      Metric("trace.cluster_s", wallS, "s"),
      Metric("trace.overhead_s", wallS - untracedS, "s"))
  }
}
