//! Property-based tests for the execution layer: the n-ary hash join of
//! [`Relation`] against a brute-force nested-loop oracle, the packed-key
//! sort kernel against a stable reference sort, and partition/scan
//! invariants of the simulated store.

use cliquesquare_engine::{JoinOrder, Relation};
use cliquesquare_mapreduce::PartitionedStore;
use cliquesquare_rdf::{Graph, Term, TermId, TriplePosition};
use cliquesquare_sparql::Variable;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use std::cmp::Ordering;
use std::collections::BTreeSet;

fn v(name: &str) -> Variable {
    Variable::new(name)
}

fn relation(schema: &[&str], rows: Vec<Vec<u32>>) -> Relation {
    Relation::new(
        schema.iter().map(|s| v(s)).collect(),
        rows.into_iter()
            .map(|r| r.into_iter().map(TermId).collect())
            .collect(),
    )
}

/// Brute-force binary join used as an oracle.
fn oracle_join(left: &Relation, right: &Relation, attrs: &[Variable]) -> usize {
    let mut count = 0usize;
    for l in left.rows() {
        'rows: for r in right.rows() {
            for attr in attrs {
                let lc = left.column(attr).unwrap();
                let rc = right.column(attr).unwrap();
                if l[lc] != r[rc] {
                    continue 'rows;
                }
            }
            // Shared non-join attributes must also agree.
            for (ci, var) in right.schema().iter().enumerate() {
                if attrs.contains(var) {
                    continue;
                }
                if let Some(lc) = left.column(var) {
                    if l[lc] != r[ci] {
                        continue 'rows;
                    }
                }
            }
            count += 1;
        }
    }
    count
}

/// Term ids for the sort properties: a few small values (so keys tie) and
/// a few just below `u32::MAX` (so the most significant packed field uses
/// its top bits).
fn term_id() -> BoxedStrategy<u32> {
    prop_oneof![0u32..3, (u32::MAX - 2)..=u32::MAX].boxed()
}

/// Rows of `arity` ids each.
fn rows_of_arity(arity: usize, max_rows: usize) -> BoxedStrategy<Vec<Vec<u32>>> {
    proptest::collection::vec(
        proptest::collection::vec(term_id(), arity..arity + 1),
        0..max_rows,
    )
    .boxed()
}

/// An unordered relation over columns `c0 … c{arity-1}` holding `rows` in
/// the given order (its tracked order claims nothing).
fn unordered(names: &[String], rows: &[Vec<u32>]) -> Relation {
    let mut relation = Relation::empty(names.iter().map(|n| v(n)).collect());
    for row in rows {
        let ids: Vec<TermId> = row.iter().copied().map(TermId).collect();
        relation.push_row_unordered(&ids);
    }
    relation
}

fn cmp_on(a: &[u32], b: &[u32], key: &[usize]) -> Ordering {
    key.iter()
        .map(|&c| a[c].cmp(&b[c]))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// The reference: a stable sort of the row vectors by `key`.
fn stable_sorted(rows: &[Vec<u32>], key: &[usize]) -> Vec<Vec<u32>> {
    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| cmp_on(a, b, key));
    sorted
}

fn ids_of(relation: &Relation) -> Vec<Vec<u32>> {
    relation
        .rows()
        .map(|row| row.iter().map(|id| id.0).collect())
        .collect()
}

/// A sort case: arity 1–6, a key of 1–5 distinct columns in any order, and
/// rows of that arity.
fn sort_case() -> BoxedStrategy<(usize, Vec<usize>, Vec<Vec<u32>>)> {
    (1usize..7)
        .prop_flat_map(|arity| {
            (
                Just(arity),
                1usize..arity.min(5) + 1,
                proptest::collection::vec(0u32..1000, arity..arity + 1),
                rows_of_arity(arity, 40),
            )
        })
        .prop_map(|(arity, key_len, shuffle, rows)| {
            // A random column permutation, cut to the key length.
            let mut columns: Vec<usize> = (0..arity).collect();
            columns.sort_by_key(|&c| (shuffle[c], c));
            columns.truncate(key_len);
            (arity, columns, rows)
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `sort_by_columns` yields exactly the row sequence of a stable
    /// reference sort, on every kernel path: one-column keys (`u64`), two
    /// or three columns (`u128`), full rows of up to four columns packed
    /// whole, and wider keys on the comparator fallback.
    #[test]
    fn packed_sort_matches_a_stable_reference_sort(case in sort_case()) {
        let (arity, key, rows) = case;
        let names: Vec<String> = (0..arity).map(|c| format!("c{c}")).collect();
        let mut relation = unordered(&names, &rows);
        relation.sort_by_columns(&key);
        prop_assert_eq!(ids_of(&relation), stable_sorted(&rows, &key));
        prop_assert_eq!(relation.order().columns(), &key[..]);

        let mut canonical = unordered(&names, &rows);
        canonical.canonicalize();
        let all: Vec<usize> = (0..arity).collect();
        prop_assert_eq!(ids_of(&canonical), stable_sorted(&rows, &all));
    }

    /// A join re-sorts unordered inputs with the same stable kernel: with
    /// the natural output order, key groups come out ascending and each
    /// group's rows in their original relative order, nested left over
    /// right — for keys of 1–4 attributes (the fourth is past the packed
    /// widths).
    #[test]
    fn join_resorts_inputs_stably(
        case in (1usize..5).prop_flat_map(|width| {
            (Just(width), rows_of_arity(width + 1, 25), rows_of_arity(width + 1, 25))
        }),
    ) {
        let (width, left_rows, right_rows) = case;
        // Left is `(k0 … k{w-1}, a)`; right lists the keys reversed after
        // its payload, `(b, k{w-1} … k0)`, so its key columns are permuted.
        let keys: Vec<String> = (0..width).map(|k| format!("k{k}")).collect();
        let mut left_names = keys.clone();
        left_names.push("a".to_string());
        let mut right_names = vec!["b".to_string()];
        right_names.extend(keys.iter().rev().cloned());
        let left = unordered(&left_names, &left_rows);
        let right = unordered(&right_names, &right_rows);
        let attrs: Vec<Variable> = keys.iter().map(|k| v(k)).collect();
        let joined = Relation::join_ordered(&[&left, &right], &attrs, JoinOrder::Natural);

        let left_key: Vec<usize> = (0..width).collect();
        let right_key: Vec<usize> = (1..=width).rev().collect();
        let left_sorted = stable_sorted(&left_rows, &left_key);
        let right_sorted = stable_sorted(&right_rows, &right_key);
        let mut expected: Vec<Vec<u32>> = Vec::new();
        for l in &left_sorted {
            let l_key: Vec<u32> = left_key.iter().map(|&c| l[c]).collect();
            for r in &right_sorted {
                let r_key: Vec<u32> = right_key.iter().map(|&c| r[c]).collect();
                if l_key == r_key {
                    let mut row = l.clone();
                    row.push(r[0]);
                    expected.push(row);
                }
            }
        }
        prop_assert_eq!(ids_of(&joined), expected);
    }

    /// The hash join returns exactly the rows the nested-loop oracle returns,
    /// regardless of input order.
    #[test]
    fn hash_join_matches_nested_loop(
        left_rows in proptest::collection::vec((0u32..6, 0u32..6), 0..25),
        right_rows in proptest::collection::vec((0u32..6, 0u32..6), 0..25),
    ) {
        let left = relation(&["x", "a"], left_rows.iter().map(|&(x, a)| vec![x, a]).collect());
        let right = relation(&["x", "b"], right_rows.iter().map(|&(x, b)| vec![x, b]).collect());
        let attrs = vec![v("x")];
        let joined = Relation::join(&[&left, &right], &attrs);
        prop_assert_eq!(joined.len(), oracle_join(&left, &right, &attrs));
        let swapped = Relation::join(&[&right, &left], &attrs);
        prop_assert_eq!(swapped.len(), joined.len());
    }

    /// A three-way star join equals joining twice pairwise.
    #[test]
    fn nary_join_equals_cascaded_binary_joins(
        r1 in proptest::collection::vec((0u32..5, 0u32..5), 0..15),
        r2 in proptest::collection::vec((0u32..5, 0u32..5), 0..15),
        r3 in proptest::collection::vec((0u32..5, 0u32..5), 0..15),
    ) {
        let a = relation(&["x", "a"], r1.iter().map(|&(x, y)| vec![x, y]).collect());
        let b = relation(&["x", "b"], r2.iter().map(|&(x, y)| vec![x, y]).collect());
        let c = relation(&["x", "c"], r3.iter().map(|&(x, y)| vec![x, y]).collect());
        let attrs = vec![v("x")];
        let nary = Relation::join(&[&a, &b, &c], &attrs);
        let ab = Relation::join(&[&a, &b], &attrs);
        let cascaded = Relation::join(&[&ab, &c], &attrs);
        prop_assert_eq!(nary.len(), cascaded.len());
        prop_assert_eq!(
            nary.clone().distinct().sorted().len(),
            cascaded.clone().distinct().sorted().len()
        );
    }

    /// Projection never increases the row count and keeps only requested
    /// columns; distinct never increases it further.
    #[test]
    fn project_and_distinct_shrink(
        rows in proptest::collection::vec((0u32..4, 0u32..4, 0u32..4), 0..30),
    ) {
        let rel = relation(&["a", "b", "c"], rows.iter().map(|&(a, b, c)| vec![a, b, c]).collect());
        let projected = rel.project(&[v("a"), v("c")]);
        prop_assert_eq!(projected.len(), rel.len());
        prop_assert_eq!(projected.schema().len(), 2);
        prop_assert!(projected.clone().distinct().len() <= projected.len());
    }

    /// Partitioning any graph over any cluster size stores every triple three
    /// times, and a per-property scan returns exactly the property's triples
    /// no matter which placement replica is read.
    #[test]
    fn partitioning_preserves_all_triples(
        raw in proptest::collection::vec((0u32..15, 0u32..4, 0u32..15), 1..120),
        nodes in 1usize..9,
    ) {
        let mut graph = Graph::new();
        for (s, p, o) in &raw {
            graph.insert_terms(
                Term::iri(format!("s{s}")),
                Term::iri(format!("p{p}")),
                Term::iri(format!("o{o}")),
            );
        }
        let store = PartitionedStore::build(&graph, nodes);
        let stats = store.stats();
        prop_assert_eq!(stats.stored_triples, graph.len() * 3);
        prop_assert_eq!(stats.nodes, nodes.max(1));
        let properties: BTreeSet<TermId> = graph.triples().iter().map(|t| t.property).collect();
        for property in properties {
            let expected = graph
                .triples_with(TriplePosition::Property, property)
                .count();
            for placement in TriplePosition::ALL {
                prop_assert_eq!(
                    store.scan_cardinality(placement, Some(property), None),
                    expected
                );
            }
        }
    }
}
