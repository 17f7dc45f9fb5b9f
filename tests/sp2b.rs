//! End-to-end tests of the SP²Bench-flavoured workload: the streaming bulk
//! loader must ingest the DBLP-like generator output bit-identically to the
//! sequential path at every thread count, and the engine must answer the
//! chain/skew query set exactly like the naive reference evaluator, with a
//! result that is the canonical, duplicate-free answer set at every thread
//! count.

use cliquesquare::engine::csq::{Csq, CsqConfig};
use cliquesquare::engine::reference;
use cliquesquare::engine::{translate, Executor};
use cliquesquare::mapreduce::load::{BulkLoader, LoadOptions};
use cliquesquare::mapreduce::{Cluster, ClusterConfig, PartitionedStore, Runtime};
use cliquesquare::querygen::sp2b_queries;
use cliquesquare::rdf::{Sp2bGenerator, Sp2bScale};
use cliquesquare_server::QueryService;

/// The SP²Bench analogue of the tentpole acceptance test: parallel loads of
/// generator output at threads 1, 2 and 8 reproduce the sequential build
/// bit for bit (ids, indexes, partition files).
#[test]
fn sp2b_bulk_load_is_bit_identical_to_sequential() {
    let scale = Sp2bScale::tiny();
    let expected_graph = Sp2bGenerator::new(scale).generate();
    let expected_store = PartitionedStore::build(&expected_graph, 5);

    for threads in [1, 2, 8] {
        let loader = BulkLoader::new(Runtime::with_threads(threads));
        let output = loader.load_sp2b(scale, &LoadOptions::with_nodes(5));
        assert_eq!(output.graph, expected_graph, "threads={threads}");
        assert_eq!(output.store, expected_store, "threads={threads}");
        assert_eq!(output.report.triples, expected_graph.len());
        for (id, term) in expected_graph.dictionary().iter() {
            assert_eq!(
                output.graph.lookup(term),
                Some(id),
                "threads={threads}: id of {term} changed"
            );
        }
    }
}

/// Every SP²Bench query returns the reference evaluator's answer count on a
/// bulk-loaded cluster, and every query has a non-empty answer (the
/// generator really produces the chains and skewed joins the queries walk).
#[test]
fn sp2b_queries_match_the_reference_evaluator() {
    let scale = Sp2bScale::tiny();
    let graph = Sp2bGenerator::new(scale).generate();

    let loader = BulkLoader::new(Runtime::with_threads(4));
    let output = loader.load_sp2b(scale, &LoadOptions::with_nodes(4));
    let cluster = Cluster::load(output.graph, ClusterConfig::with_nodes(4));
    let csq = Csq::new(cluster, CsqConfig::default());

    for query in sp2b_queries::sp2b_queries() {
        let expected = reference::reference_count(&graph, &query);
        let report = csq.run(&query);
        assert_eq!(
            report.result_count,
            expected,
            "{} diverges from the reference evaluator",
            query.name()
        );
        assert!(expected > 0, "{} has an empty answer", query.name());
    }
}

/// The streaming loader's in-flight gauge stays well below the parsed-bytes
/// total on generator input too (bounded-memory contract for the
/// generated-data path, not just N-Triples text).
#[test]
fn sp2b_streaming_load_bounds_inflight_bytes() {
    let scale = Sp2bScale::default();
    let loader = BulkLoader::new(Runtime::with_threads(2));
    let output = loader.load_sp2b(scale, &LoadOptions::with_nodes(4));
    let report = &output.report;
    assert!(report.parsed_bytes > 0);
    assert!(
        report.peak_inflight_bytes * 2 <= report.parsed_bytes,
        "peak in-flight {} vs parsed {}: the generated-data load is not streaming",
        report.peak_inflight_bytes,
        report.parsed_bytes
    );
}

/// `ExecutionOutput::results` is the distinct answer set of S1–S6: canonical,
/// free of duplicates, equal to the reference evaluator's answer set, and
/// bit-identical at 1, 2 and 8 threads and on a serving runtime. The served
/// `total_rows` is the same with the plan cache on and off.
#[test]
fn sp2b_results_are_canonical_distinct_and_thread_independent() {
    let graph = Sp2bGenerator::new(Sp2bScale::tiny()).generate();
    let cluster = Cluster::load(graph.clone(), ClusterConfig::with_nodes(4));
    let csq = Csq::new(cluster.clone(), CsqConfig::default());
    let cached = QueryService::new(cluster.clone(), Runtime::serving(2));
    let uncached = QueryService::new(cluster.clone(), Runtime::serving(2)).with_plan_cache(None);

    for query in sp2b_queries::sp2b_queries() {
        let name = query.name().to_string();
        let (_, chosen, _) = csq.plan(&query);
        let physical = translate(&chosen, cluster.graph());
        let baseline = Executor::with_runtime(&cluster, Runtime::sequential()).execute(&physical);
        let results = &baseline.results;
        assert!(results.is_canonical(), "{name}: results not canonical");
        assert_eq!(
            results.clone().distinct(),
            *results,
            "{name}: results hold duplicates"
        );
        assert_eq!(baseline.distinct_count(), results.len());
        assert_eq!(
            *results,
            reference::reference_eval(&graph, &query),
            "{name}: the reference evaluator's answer set"
        );
        assert!(!results.is_empty(), "{name} has an empty answer");

        for runtime in [
            Runtime::with_threads(2),
            Runtime::with_threads(8),
            Runtime::serving(2),
        ] {
            let label = format!("{name} on {} thread(s)", runtime.threads());
            let output = Executor::with_runtime(&cluster, runtime).execute(&physical);
            assert_eq!(output.results, *results, "{label}");
        }

        // The cached service plans on the first run and hits on the second.
        let planned = cached.run(&query).expect("serves");
        let hit = cached.run(&query).expect("serves");
        let fresh = uncached.run(&query).expect("serves");
        assert!(hit.cache_hit, "{name}: repeat run misses the plan cache");
        for answer in [&planned, &hit, &fresh] {
            assert_eq!(answer.total_rows, results.len(), "{name}: total_rows");
        }
        assert_eq!(
            hit.rows, fresh.rows,
            "{name}: rows differ across cache settings"
        );
    }
}
